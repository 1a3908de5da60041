package experiments

import (
	"strconv"
	"strings"
	"testing"

	"enmc/internal/compiler"
	"enmc/internal/nmp"
	"enmc/internal/system"
)

// tinyQuality keeps the algorithm-level tests fast.
func tinyQuality() QualityOptions {
	return QualityOptions{
		Seed: 1, LTarget: 320, MaxHidden: 96,
		TrainSamples: 256, TestSamples: 32, Epochs: 6,
		Sentences: 4, SentenceLen: 8,
	}
}

func tinyPerf() PerfOptions {
	return PerfOptions{Batches: []int{1, 4}, SampleRows: 1024}
}

func cell(t *Table, row, col int) string { return t.Rows[row][col] }

func cellFloat(tst *testing.T, t *Table, row, col int) float64 {
	s := strings.TrimSuffix(cell(t, row, col), "x")
	s = strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		tst.Fatalf("cell (%d,%d) = %q not numeric: %v", row, col, cell(t, row, col), err)
	}
	return v
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{Title: "T", Header: []string{"a", "bbbb"}}
	tab.AddRow("xx", "y")
	tab.Notes = append(tab.Notes, "n")
	s := tab.String()
	for _, want := range []string{"== T ==", "bbbb", "xx", "note: n"} {
		if !strings.Contains(s, want) {
			t.Fatalf("formatted table missing %q:\n%s", want, s)
		}
	}
}

func TestFmtHelpers(t *testing.T) {
	if fmtSI(1.5e9) != "1.5G" || fmtSI(2e3) != "2.0K" || fmtSI(12) != "12" || fmtSI(3e6) != "3.0M" || fmtSI(2e12) != "2.0T" {
		t.Fatal("fmtSI")
	}
	if fmtX(2.34) != "2.3x" {
		t.Fatal("fmtX")
	}
}

func TestFig4Shape(t *testing.T) {
	tab := Fig4()
	if len(tab.Rows) != 7 {
		t.Fatalf("Fig4 rows = %d", len(tab.Rows))
	}
	// Classification share must grow monotonically across the
	// synthetic scaling rows and exceed 97% for XMLCNN.
	xml := cellFloat(t, tab, 3, 3)
	if xml < 97 {
		t.Fatalf("XMLCNN classification param share %v", xml)
	}
	s100m := cellFloat(t, tab, 6, 3)
	if s100m < xml {
		t.Fatal("classification share must grow with scale")
	}
}

func TestFig5aLinear(t *testing.T) {
	tab := Fig5a()
	// Footprint and time must both grow ~linearly: the last row is
	// 100M categories vs 33278 in the first (≈3005× larger).
	gbRatio := cellFloat(t, tab, len(tab.Rows)-1, 1) / cellFloat(t, tab, 0, 1)
	if gbRatio < 2000 || gbRatio > 4000 {
		t.Fatalf("footprint scaling ratio %v", gbRatio)
	}
	msRatio := cellFloat(t, tab, len(tab.Rows)-1, 2) / cellFloat(t, tab, 0, 2)
	if msRatio < 1000 {
		t.Fatalf("time scaling ratio %v", msRatio)
	}
}

func TestFig5bMemoryVsComputeBound(t *testing.T) {
	tab := Fig5b()
	// The Xeon ridge point is peak-flops/bandwidth ≈ 37.5 ops/byte:
	// screening and candidate-only rows must sit left of it
	// (memory-bound), the front-end to the right (compute-bound). At
	// batch 1 both screened kernels must be far left.
	const ridge = 37.5
	for i := range tab.Rows {
		oi := cellFloat(t, tab, i, 2)
		batch := cell(tab, i, 1)
		switch cell(tab, i, 0) {
		case "screening", "candidate-only":
			if oi >= ridge {
				t.Fatalf("row %d: %s intensity %v beyond the ridge", i, cell(tab, i, 0), oi)
			}
			if batch == "1" && oi > ridge/4 {
				t.Fatalf("row %d: batch-1 intensity %v not deeply memory-bound", i, oi)
			}
		case "front-end":
			if oi < ridge {
				t.Fatalf("row %d: front-end intensity %v should be compute-bound", i, oi)
			}
		}
	}
}

func TestFig12Trends(t *testing.T) {
	tab, err := Fig12(tinyQuality())
	if err != nil {
		t.Fatal(err)
	}
	// Agreement must improve monotonically with k/d in panel (a)
	// (within a small tolerance) and INT2 must be the worst precision
	// in panel (b).
	var scaleAgree []float64
	var int2, int4 float64
	for i := range tab.Rows {
		switch {
		case cell(tab, i, 0) == "(a) scale":
			scaleAgree = append(scaleAgree, cellFloat(t, tab, i, 3))
		case cell(tab, i, 1) == "INT2":
			int2 = cellFloat(t, tab, i, 3)
		case cell(tab, i, 1) == "INT4":
			int4 = cellFloat(t, tab, i, 3)
		}
	}
	if len(scaleAgree) != 4 {
		t.Fatalf("scale sweep rows = %d", len(scaleAgree))
	}
	if scaleAgree[len(scaleAgree)-1] < scaleAgree[0] {
		t.Fatalf("agreement did not improve with scale: %v", scaleAgree)
	}
	if int2 > int4 {
		t.Fatalf("INT2 agreement %v should not beat INT4 %v", int2, int4)
	}
}

func TestFig13Ordering(t *testing.T) {
	tab, err := Fig13(tinyPerf())
	if err != nil {
		t.Fatal(err)
	}
	avg := tab.Rows[len(tab.Rows)-1]
	if avg[0] != "geo/avg" {
		t.Fatal("missing average row")
	}
	cpuAS, _ := strconv.ParseFloat(strings.TrimSuffix(avg[2], "x"), 64)
	nda, _ := strconv.ParseFloat(strings.TrimSuffix(avg[3], "x"), 64)
	cham, _ := strconv.ParseFloat(strings.TrimSuffix(avg[4], "x"), 64)
	td, _ := strconv.ParseFloat(strings.TrimSuffix(avg[5], "x"), 64)
	en, _ := strconv.ParseFloat(strings.TrimSuffix(avg[6], "x"), 64)
	// Paper ordering: ENMC > TensorDIMM > NDA > Chameleon, and all
	// NMPs beat CPU+AS on average.
	if !(en > td && td > nda && nda > cham) {
		t.Fatalf("design ordering wrong: %v", avg)
	}
	if en < cpuAS {
		t.Fatal("ENMC must beat CPU+AS")
	}
	// The ENMC/TensorDIMM ratio should land near the paper's 2.7x.
	if r := en / td; r < 1.8 || r > 4.5 {
		t.Fatalf("ENMC/TensorDIMM ratio %v far from paper's 2.7", r)
	}
}

func TestFig14EnergyShape(t *testing.T) {
	tab, err := Fig14(tinyPerf())
	if err != nil {
		t.Fatal(err)
	}
	// Every workload: ENMC total < TensorDIMM total; static+access+
	// logic must sum to the total column.
	for i := 0; i < len(tab.Rows); i += 3 {
		tdTotal := cellFloat(t, tab, i, 5)
		enTotal := cellFloat(t, tab, i+2, 5)
		if enTotal >= tdTotal/2 {
			t.Fatalf("row %d: ENMC energy %v not well below TensorDIMM %v", i, enTotal, tdTotal)
		}
		for r := i; r < i+3; r++ {
			sum := cellFloat(t, tab, r, 2) + cellFloat(t, tab, r, 3) + cellFloat(t, tab, r, 4)
			if total := cellFloat(t, tab, r, 5); sum < total*0.99 || sum > total*1.01 {
				t.Fatalf("row %d: components %v != total %v", r, sum, total)
			}
		}
	}
}

func TestFig15GapWidens(t *testing.T) {
	tab, err := Fig15(tinyPerf())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("Fig15 rows = %d", len(tab.Rows))
	}
	first := cellFloat(t, tab, 0, 4)
	last := cellFloat(t, tab, 3, 4)
	if last <= first {
		t.Fatalf("ENMC/TD gap must widen with scale: %v → %v", first, last)
	}
	// TD-Large must beat TD at every scale (its reason to exist).
	for i := range tab.Rows {
		if cellFloat(t, tab, i, 2) <= cellFloat(t, tab, i, 1) {
			t.Fatalf("row %d: TD-Large not faster than TD", i)
		}
	}
}

func TestStaticTables(t *testing.T) {
	if got := len(Table2().Rows); got != 7 {
		t.Fatalf("Table2 rows = %d", got)
	}
	t3 := Table3().String()
	for _, want := range []string{"DDR4-2400", "16-16-16", "128"} {
		if !strings.Contains(t3, want) {
			t.Fatalf("Table3 missing %q", want)
		}
	}
	if got := len(Table4().Rows); got != 4 {
		t.Fatalf("Table4 rows = %d", got)
	}
	t5 := Table5()
	if cell(t5, len(t5.Rows)-1, 0) != "total" {
		t.Fatal("Table5 missing total row")
	}
	if cellFloat(t, t5, len(t5.Rows)-1, 2) != 285.4 {
		t.Fatal("Table5 total power")
	}
}

// TestFig11Smoke runs the full quality comparison at tiny scale and
// validates the structural claims: AS has the highest speedup at
// every budget, and AS quality approaches exact as the budget grows.
func TestFig11Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("quality experiment in -short mode")
	}
	tab, err := Fig11(tinyQuality())
	if err != nil {
		t.Fatal(err)
	}
	// 4 workloads × (1 exact + 3 budgets × 3 methods) rows.
	if len(tab.Rows) != 4*10 {
		t.Fatalf("Fig11 rows = %d", len(tab.Rows))
	}
	for i := range tab.Rows {
		if cell(tab, i, 2) != "AS" {
			continue
		}
		asSp := cellFloat(t, tab, i, 4)
		svdSp := cellFloat(t, tab, i+1, 4)
		fgdSp := cellFloat(t, tab, i+2, 4)
		if asSp <= svdSp || asSp <= fgdSp {
			t.Fatalf("row %d: AS speedup %v not dominant (SVD %v, FGD %v)", i, asSp, svdSp, fgdSp)
		}
	}
}

func TestAblationsTable(t *testing.T) {
	tab, err := Ablations(tinyQuality())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 12 {
		t.Fatalf("ablation rows = %d", len(tab.Rows))
	}
	// Learned screener must not be worse than projected.
	learned := cellFloat(t, tab, 0, 3)
	projected := cellFloat(t, tab, 1, 3)
	if learned < projected {
		t.Fatalf("learned %v below projected %v", learned, projected)
	}
	// Per-row MSE must not exceed per-tensor.
	if cellFloat(t, tab, 4, 3) > cellFloat(t, tab, 5, 3) {
		t.Fatal("per-row scales should not lose to per-tensor")
	}
	// QAT must not be meaningfully worse than post-training
	// quantization at INT2 (it usually wins; allow 5% slack for the
	// tiny test configuration).
	if cellFloat(t, tab, 7, 3) > cellFloat(t, tab, 6, 3)*1.05 {
		t.Fatal("QAT lost badly to post-training quantization at INT2")
	}
	// Restreaming must cost more than reuse.
	if cellFloat(t, tab, 11, 3) <= cellFloat(t, tab, 10, 3) {
		t.Fatal("restream should cost more than reuse")
	}
}

func TestExtScaleOut(t *testing.T) {
	tab, err := ExtScaleOut(tinyPerf())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("scale-out rows = %d", len(tab.Rows))
	}
	// Efficiency must decay monotonically-ish: first 1.0, last < 0.8.
	if cellFloat(t, tab, 0, 5) < 0.99 {
		t.Fatal("single-node efficiency must be 1")
	}
	if cellFloat(t, tab, 4, 5) >= cellFloat(t, tab, 0, 5) {
		t.Fatal("efficiency should decay with node count")
	}
	// Speedup still grows.
	if cellFloat(t, tab, 4, 4) <= cellFloat(t, tab, 1, 4) {
		t.Fatal("speedup should keep growing to 16 nodes")
	}
}

// TestScaleOutRun: the scale-out model on a 1M-class task — every
// term positive, and four nodes faster than one.
func TestScaleOutRun(t *testing.T) {
	task := compiler.Task{Categories: 1_000_000, Hidden: 512, Reduced: 128, Candidates: 20000, Batch: 1}
	sys := system.Default(nmp.ENMC())
	sys.SampleRows = 1024
	total := func(nodes int) float64 {
		node, scatter, gather, err := scaleOutRun(sys, task, nodes)
		if err != nil {
			t.Fatal(err)
		}
		if node <= 0 || scatter <= 0 || gather <= 0 {
			t.Fatalf("%d nodes: empty term node=%v scatter=%v gather=%v", nodes, node, scatter, gather)
		}
		return node + scatter + gather
	}
	if four, one := total(4), total(1); four >= one {
		t.Fatalf("4 nodes (%v s) not faster than 1 (%v s)", four, one)
	}
}

func TestExtHostInterface(t *testing.T) {
	tab, err := ExtHostInterface(tinyPerf())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("host rows = %d", len(tab.Rows))
	}
	for i := range tab.Rows {
		if f := cellFloat(t, tab, i, 5); f > 0.3 {
			t.Fatalf("row %d: host-bus fraction %v too high", i, f)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{Title: "T", Header: []string{"a", "b"}}
	tab.AddRow("x,1", `say "hi"`)
	tab.AddRow("plain", "2")
	got := tab.CSV()
	want := "a,b\n\"x,1\",\"say \"\"hi\"\"\"\nplain,2\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestExtBeam(t *testing.T) {
	tab, err := ExtBeam(tinyQuality())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("beam rows = %d", len(tab.Rows))
	}
	for i := range tab.Rows {
		agree := cellFloat(t, tab, i, 2)
		// The tiny test configuration underfits badly at the 2%
		// budget; only sanity-check the range here (the full-size run
		// in testdata/ext-beam.golden shows 0.93–1.00).
		if agree <= 0 || agree > 1.0 {
			t.Fatalf("row %d: implausible agreement %v", i, agree)
		}
	}
	// The 5% budget must not lose to the 2% budget at the same width
	// (more candidates can only help the beam), allowing tiny noise.
	for w := 0; w < 3; w++ {
		low := cellFloat(t, tab, 2*w, 2)
		high := cellFloat(t, tab, 2*w+1, 2)
		if high < low-0.1 {
			t.Fatalf("width row %d: 5%% budget (%v) much worse than 2%% (%v)", w, high, low)
		}
	}
}
