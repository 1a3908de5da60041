package experiments

// Experiment is one runnable table or figure.
type Experiment struct {
	Name string
	Run  func(QualityOptions, PerfOptions) (*Table, error)
}

// Registry lists every experiment in paper order, the order enmc-bench
// runs them in; enmc.RunExperiment looks its names up here.
var Registry = []Experiment{
	{"table2", fixed(Table2)}, {"table3", fixed(Table3)}, {"table4", fixed(Table4)}, {"table5", fixed(Table5)},
	{"fig4", fixed(Fig4)}, {"fig5a", fixed(Fig5a)}, {"fig5b", fixed(Fig5b)},
	{"fig11", quality(Fig11)}, {"fig12", quality(Fig12)},
	{"fig13", perf(Fig13)}, {"fig14", perf(Fig14)}, {"fig15", perf(Fig15)},
	{"ablations", quality(Ablations)},
	{"ext-scaleout", perf(ExtScaleOut)}, {"ext-host", perf(ExtHostInterface)},
	{"ext-beam", quality(ExtBeam)}, {"ext-gpu", perf(ExtGPU)},
}

func fixed(f func() *Table) func(QualityOptions, PerfOptions) (*Table, error) {
	return func(QualityOptions, PerfOptions) (*Table, error) { return f(), nil }
}

func quality(f func(QualityOptions) (*Table, error)) func(QualityOptions, PerfOptions) (*Table, error) {
	return func(o QualityOptions, _ PerfOptions) (*Table, error) { return f(o) }
}

func perf(f func(PerfOptions) (*Table, error)) func(QualityOptions, PerfOptions) (*Table, error) {
	return func(_ QualityOptions, o PerfOptions) (*Table, error) { return f(o) }
}

// Options returns the experiment options for seed: the defaults, or
// with quick the smoke-run preset of `enmc-bench -quick` and
// enmc.RunExperiment(name, true), which shrinks the algorithm-level
// workloads and the per-rank simulation.
func Options(seed uint64, quick bool) (QualityOptions, PerfOptions) {
	if !quick {
		return QualityOptions{Seed: seed}, PerfOptions{}
	}
	return QualityOptions{Seed: seed, LTarget: 384, MaxHidden: 128, TrainSamples: 96, TestSamples: 48, Epochs: 4},
		PerfOptions{SampleRows: 2048}
}
