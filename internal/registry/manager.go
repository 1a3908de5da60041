package registry

import (
	"context"
	"fmt"
	"sync"

	"enmc/internal/core"
	"enmc/internal/metrics"
	"enmc/internal/server"
	"enmc/internal/telemetry"
	"enmc/internal/tensor"
	"enmc/internal/xrand"
)

// Lifecycle instruments on the default telemetry registry. The
// serving layer reads swap_total and canary_rejected by name (the
// registry is get-or-create) so /v1/model can report them without a
// package cycle.
var (
	mReloadTotal   = telemetry.Default().Counter("registry.reload_total")
	mSwapTotal     = telemetry.Default().Counter("registry.swap_total")
	mCanaryReject  = telemetry.Default().Counter("registry.canary_rejected")
	mLoadFailed    = telemetry.Default().Counter("registry.load_failed")
	mRetiredTotal  = telemetry.Default().Counter("registry.retired_total")
	mPinnedLoaded  = telemetry.Default().Counter("registry.pinned_loaded")
	mActiveVersion = telemetry.Default().Gauge("registry.active_version")
	mCanaryRecall  = telemetry.Default().Gauge("registry.canary_recall")
)

// Options tunes the lifecycle manager.
type Options struct {
	// TopM is the screening budget the server serves at, and so the
	// one the canary screens at (default server.DefaultTopM of the
	// initial version's class count, as server.Config defaults it).
	TopM int
	// RecallFloor rejects a candidate whose canary recall@canaryK falls
	// below this fraction of the serving model's (default 0.9). 0 keeps
	// the default; negative disables the gate.
	RecallFloor float64
	// Logf, when non-nil, receives one line per lifecycle event.
	Logf func(format string, args ...interface{})
}

func (o *Options) defaults(categories int) {
	if o.TopM <= 0 {
		o.TopM = server.DefaultTopM(categories)
	}
	if o.RecallFloor == 0 {
		o.RecallFloor = 0.9
	}
}

// synthProbes and synthSeed size and seed the synthesized fallback
// probe set; canaryK is the K of the canary's recall@K.
const (
	synthProbes = 64
	synthSeed   = 1
	canaryK     = 5
)

// CanaryError reports a candidate rejected by the canary gate: its
// Recall fell below Want, RecallFloor × the serving model's recall.
// The previous version keeps serving (Reload returns it as active).
type CanaryError struct {
	Version string
	Recall  float64
	Want    float64
}

func (e *CanaryError) Error() string {
	return fmt.Sprintf("registry: version %q rejected by canary: screened recall@%d %.3f below %.3f",
		e.Version, canaryK, e.Recall, e.Want)
}

// Manager owns the serving model's lifecycle: it loads versions from
// a Store off the request path, canary-validates candidates (each
// one's screened answer against its own full classifier, relative to
// the serving model's), and swaps the server.Swappable backend with the
// drain ordering the serving layer guarantees.
type Manager struct {
	store *Store
	opt   Options
	sw    *server.Swappable

	mu     sync.Mutex // serializes Reload; the swap itself is atomic
	active Manifest
	cur    *Loaded
	probe  [][]float32

	// pinMu guards the pinned-version cache separately from mu so a
	// first-touch pin load (checksum decode of a full model) never
	// stalls Reload or Active.
	pinMu  sync.Mutex
	pinned map[string]server.Backend
}

// NewManager loads the initial version ("" = latest), installs it in
// a fresh Swappable, and returns the manager. The Swappable is the
// server backend; Reload is the server's ReloadFunc.
func NewManager(store *Store, version string, opt Options) (*Manager, error) {
	if store == nil {
		return nil, fmt.Errorf("registry: nil store")
	}
	if version == "" {
		latest, err := store.Latest()
		if err != nil {
			return nil, err
		}
		version = latest.Version
	}
	loaded, err := store.Load(version)
	if err != nil {
		mLoadFailed.Inc()
		return nil, err
	}
	opt.defaults(loaded.Classifier.Categories())
	backend, err := server.NewLocal(loaded.Classifier, loaded.Screener)
	if err != nil {
		return nil, err
	}
	sw, err := server.NewSwappable(backend, loaded.Manifest.Version)
	if err != nil {
		return nil, err
	}
	m := &Manager{store: store, opt: opt, sw: sw, active: loaded.Manifest, cur: loaded}
	m.probe = m.probeSet(loaded)
	mActiveVersion.Set(float64(loaded.Manifest.Seq))
	m.logf("registry: serving version %q (seq %d, %s)", loaded.Manifest.Version, loaded.Manifest.Seq, loaded.Manifest.PrecisionString())
	m.logWeights(loaded)
	return m, nil
}

// logWeights logs how much of a loaded version's W the kernel put on
// huge pages, and the host's THP mode; nothing off Linux. Fresh and
// reused heap memory are advised alike (tensor.AdviseHugePages); less
// than all of W shows where THP is off or the kernel found no free
// 2 MiB pages.
func (m *Manager) logWeights(l *Loaded) {
	if s := tensor.HugePageSummary(l.Classifier.W.Data); s != "" {
		m.logf("registry: version %q classifier weights: %s", l.Manifest.Version, s)
	}
}

// Swappable returns the serving backend wrapper.
func (m *Manager) Swappable() *server.Swappable { return m.sw }

// Active returns the manifest of the serving version.
func (m *Manager) Active() Manifest {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.active
}

// probeSet picks the canary probe features: the version's shipped
// held-out set, else synthProbes deterministic Gaussian probes.
func (m *Manager) probeSet(loaded *Loaded) [][]float32 {
	if len(loaded.Probe) > 0 {
		return loaded.Probe
	}
	rng := xrand.New(synthSeed)
	d := loaded.Classifier.Hidden()
	probe := make([][]float32, synthProbes)
	for i := range probe {
		h := make([]float32, d)
		for j := range h {
			h[j] = rng.NormFloat32()
		}
		probe[i] = h
	}
	return probe
}

// Reload implements server.ReloadFunc: load the requested version
// ("" = newest), canary-validate it against the serving model, and
// hot-swap. On any failure the previous version keeps serving and the
// returned active version names it.
func (m *Manager) Reload(ctx context.Context, version string) (string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	mReloadTotal.Inc()
	tr := telemetry.Global() // registry.load / .canary / .swap spans on TrackRegistry

	if version == "" {
		latest, err := m.store.Latest()
		if err != nil {
			return m.active.Version, err
		}
		version = latest.Version
	}
	if version == m.active.Version {
		m.logf("registry: reload: version %q already active", version)
		return m.active.Version, nil
	}
	if err := ctx.Err(); err != nil {
		return m.active.Version, err
	}

	// Load (checksum-verified decode) happens entirely off the request
	// path — the serving backend is untouched until Swap.
	loadStart := tr.Now()
	loaded, err := m.store.Load(version)
	tr.AddSince("registry.load."+version, telemetry.TrackRegistry, loadStart)
	if err != nil {
		mLoadFailed.Inc()
		m.logf("registry: reload %q: load rejected: %v", version, err)
		return m.active.Version, err
	}

	// Canary gate: screen the held-out probe set at the served m on
	// both models, each scored against its own full classifier, and
	// require the candidate's recall to hold RecallFloor of the serving
	// model's. A context that ends mid-canary aborts the reload.
	if m.opt.RecallFloor > 0 {
		canaryStart := tr.Now()
		recall, err := m.selfRecall(ctx, loaded)
		var serving float64
		if err == nil {
			serving, err = m.selfRecall(ctx, m.cur)
		}
		tr.AddSince("registry.canary."+version, telemetry.TrackRegistry, canaryStart)
		if err != nil {
			m.logf("registry: reload %q: canary interrupted: %v (still serving %q)", version, err, m.active.Version)
			return m.active.Version, err
		}
		mCanaryRecall.Set(recall)
		if want := m.opt.RecallFloor * serving; recall < want {
			mCanaryReject.Inc()
			err := &CanaryError{Version: version, Recall: recall, Want: want}
			m.logf("registry: reload %q: %v (still serving %q)", version, err, m.active.Version)
			return m.active.Version, err
		}
		m.logf("registry: reload %q: canary passed (recall@%d %.3f, serving %.3f, floor %.2f)",
			version, canaryK, recall, serving, m.opt.RecallFloor)
	}

	backend, err := server.NewLocal(loaded.Classifier, loaded.Screener)
	if err != nil {
		mLoadFailed.Inc()
		return m.active.Version, err
	}
	swapStart := tr.Now()
	prev, err := m.sw.Swap(backend, version, func(retired string) {
		mRetiredTotal.Inc()
		m.logf("registry: version %q retired (last in-flight batch drained)", retired)
	})
	tr.AddSince("registry.swap."+version, telemetry.TrackRegistry, swapStart)
	if err != nil {
		m.logf("registry: reload %q: swap rejected: %v", version, err)
		return m.active.Version, err
	}
	m.active = loaded.Manifest
	m.cur = loaded
	m.probe = m.probeSet(loaded)
	mSwapTotal.Inc()
	mActiveVersion.Set(float64(loaded.Manifest.Seq))
	m.logf("registry: swapped %q -> %q (seq %d)", prev, version, loaded.Manifest.Seq)
	m.logWeights(loaded)
	return version, nil
}

// pinnedLocal is a version-tagged Local backend for tenant pinning:
// it reports the pinned version through server's Versioned interface
// so pinned responses carry the model_version actually served.
type pinnedLocal struct {
	server.Backend
	version string
}

func (p *pinnedLocal) ModelVersion() string { return p.version }

// BackendFor implements server.Config.PinnedBackend: it resolves a
// model version into a servable backend for tenants pinned to that
// version. The active version resolves to the serving Swappable (the
// hot path — pin and swap coincide); any other published version is
// loaded from the store on first use and cached for the manager's
// lifetime. The cache is bounded by the number of distinct pinned
// versions in the tenant config, which is operator-controlled.
func (m *Manager) BackendFor(version string) (server.Backend, error) {
	if version == "" {
		return m.sw, nil
	}
	m.mu.Lock()
	activeVer := m.active.Version
	m.mu.Unlock()
	if version == activeVer {
		return m.sw, nil
	}
	m.pinMu.Lock()
	defer m.pinMu.Unlock()
	if b, ok := m.pinned[version]; ok {
		return b, nil
	}
	loaded, err := m.store.Load(version)
	if err != nil {
		mLoadFailed.Inc()
		return nil, fmt.Errorf("registry: pinned version %q: %w", version, err)
	}
	backend, err := server.NewLocal(loaded.Classifier, loaded.Screener)
	if err != nil {
		return nil, fmt.Errorf("registry: pinned version %q: %w", version, err)
	}
	if m.pinned == nil {
		m.pinned = make(map[string]server.Backend)
	}
	b := &pinnedLocal{Backend: backend, version: version}
	m.pinned[version] = b
	mPinnedLoaded.Inc()
	m.logf("registry: pinned version %q loaded (seq %d)", version, loaded.Manifest.Seq)
	return b, nil
}

// selfRecall is the canary statistic of one model: the recall@canaryK
// of its screened answer at the served m against its own full
// classifier, over the probe set.
func (m *Manager) selfRecall(ctx context.Context, l *Loaded) (float64, error) {
	sc := core.GetScratch()
	defer sc.Release()
	sel := core.TopM(m.opt.TopM)
	q, err := metrics.ScreenQuality(ctx, l.Classifier, m.probe, canaryK, func(h []float32) *core.Result {
		return core.ClassifyApproxInto(l.Classifier, l.Screener, h, sel, sc)
	})
	return q.RecallAtK, err
}

func (m *Manager) logf(format string, args ...interface{}) {
	if m.opt.Logf != nil {
		m.opt.Logf(format, args...)
	}
}
