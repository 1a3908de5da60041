package registry

import (
	"context"
	"fmt"
	"sync"

	"enmc/internal/core"
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
	mCanaryAgree   = telemetry.Default().Gauge("registry.canary_agreement")
)

// Options tunes the lifecycle manager.
type Options struct {
	// ProbeTopK is the K in the canary's top-K agreement (default 5,
	// clamped to the class count).
	ProbeTopK int
	// AgreementFloor rejects a candidate whose mean top-K agreement
	// with the serving model drops below this fraction (default 0.9).
	// 0 keeps the default; negative disables the gate.
	AgreementFloor float64
	// Probe overrides the held-out probe features; when nil the
	// manager uses the active version's shipped probe set, or
	// synthesizes synthProbes deterministic Gaussian probes. The
	// canary classifies them under screening budget 4×ProbeTopK.
	Probe [][]float32
	// Tracer receives registry.load / registry.canary / registry.swap
	// spans on TrackRegistry; nil falls back to the global tracer.
	Tracer *telemetry.Tracer
	// Logf, when non-nil, receives one line per lifecycle event.
	Logf func(format string, args ...interface{})
}

func (o *Options) defaults() {
	if o.ProbeTopK <= 0 {
		o.ProbeTopK = 5
	}
	if o.AgreementFloor == 0 {
		o.AgreementFloor = 0.9
	}
}

// synthProbes and synthSeed size and seed the synthesized fallback
// probe set.
const (
	synthProbes = 64
	synthSeed   = 1
)

// CanaryError reports a candidate rejected by the canary gate. The
// previous version keeps serving (Reload returns it as active).
type CanaryError struct {
	Version   string
	Agreement float64
	Floor     float64
}

func (e *CanaryError) Error() string {
	return fmt.Sprintf("registry: version %q rejected by canary: top-K agreement %.3f below floor %.3f",
		e.Version, e.Agreement, e.Floor)
}

// Manager owns the serving model's lifecycle: it loads versions from
// a Store off the request path, canary-validates candidates against
// the serving model, and swaps the server.Swappable backend with the
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
	opt.defaults()
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

// probeSet picks the canary probe features: explicit option, then the
// version's shipped held-out set, then a deterministic synthetic set.
func (m *Manager) probeSet(loaded *Loaded) [][]float32 {
	if len(m.opt.Probe) > 0 {
		return m.opt.Probe
	}
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
	tr := m.opt.Tracer
	if tr == nil {
		tr = telemetry.Global()
	}

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

	// Canary gate: classify the held-out probe set on both models and
	// require the candidate's top-K to agree with the serving model's.
	if m.opt.AgreementFloor > 0 {
		canaryStart := tr.Now()
		agree := m.agreement(ctx, loaded)
		tr.AddSince("registry.canary."+version, telemetry.TrackRegistry, canaryStart)
		mCanaryAgree.Set(agree)
		if agree < m.opt.AgreementFloor {
			mCanaryReject.Inc()
			err := &CanaryError{Version: version, Agreement: agree, Floor: m.opt.AgreementFloor}
			m.logf("registry: reload %q: %v (still serving %q)", version, err, m.active.Version)
			return m.active.Version, err
		}
		m.logf("registry: reload %q: canary passed (agreement %.3f >= %.3f)", version, agree, m.opt.AgreementFloor)
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

// agreement computes the canary statistic: the mean over the probe
// set of |topK(candidate) ∩ topK(serving)| / K, both models screened
// under the same budget.
func (m *Manager) agreement(ctx context.Context, cand *Loaded) float64 {
	k := m.opt.ProbeTopK
	if l := cand.Classifier.Categories(); k > l {
		k = l
	}
	budget := 4 * m.opt.ProbeTopK
	if len(m.probe) == 0 {
		return 1
	}
	var sum float64
	n := 0
	for _, h := range m.probe {
		if ctx.Err() != nil {
			break
		}
		curTop := core.ClassifyApprox(m.cur.Classifier, m.cur.Screener, h, core.TopM(budget)).TopPredictions(k)
		candTop := core.ClassifyApprox(cand.Classifier, cand.Screener, h, core.TopM(budget)).TopPredictions(k)
		in := make(map[int]bool, k)
		for _, c := range curTop {
			in[c] = true
		}
		hits := 0
		for _, c := range candTop {
			if in[c] {
				hits++
			}
		}
		sum += float64(hits) / float64(k)
		n++
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}

func (m *Manager) logf(format string, args ...interface{}) {
	if m.opt.Logf != nil {
		m.opt.Logf(format, args...)
	}
}
