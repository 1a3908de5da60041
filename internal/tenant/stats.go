package tenant

import (
	"sort"
	"sync"
	"time"

	"enmc/internal/telemetry"
)

// Stats owns the per-tenant instruments: four labeled counters on the
// shared telemetry registry (tenant.admitted / tenant.shed /
// tenant.throttled / tenant.degraded, labeled by tenant and class, so
// /metrics can attribute pressure behavior to the class that absorbed
// it) plus one rolling SLO window per tenant behind /v1/tenants.
// Entries are created lazily on first sight of a (name, class) pair
// and survive config reloads — a tenant's history does not reset when
// its quota changes.
type Stats struct {
	reg    *telemetry.Registry
	sloCfg telemetry.SLOConfig

	mu  sync.Mutex
	per map[string]*TenantStats // key: name + "\x00" + class
}

// TenantStats is one tenant's instrument set.
type TenantStats struct {
	Name  string
	Class Class

	// Admitted counts requests accepted into the scheduler (or served
	// directly). Shed counts pressure rejections — class queue full or
	// the degradation ladder turning the class away. Throttled counts
	// token-bucket (quota) rejections. Degraded counts requests served
	// with a shrunken screening budget (m below the configured TopM).
	Admitted  *telemetry.Counter
	Shed      *telemetry.Counter
	Throttled *telemetry.Counter
	Degraded  *telemetry.Counter

	// SLO is the tenant's own rolling availability/latency window —
	// the per-tenant view /v1/tenants serves.
	SLO *telemetry.SLO
}

// NewStats builds a Stats over reg (nil: the default registry).
// sloCfg zero-values take telemetry's defaults.
func NewStats(reg *telemetry.Registry, sloCfg telemetry.SLOConfig) *Stats {
	if reg == nil {
		reg = telemetry.Default()
	}
	return &Stats{reg: reg, sloCfg: sloCfg, per: map[string]*TenantStats{}}
}

// For returns (creating on first use) the instrument set for a
// tenant identity.
func (s *Stats) For(t *Tenant) *TenantStats {
	return s.forNameClass(t.Name, t.Class)
}

func (s *Stats) forNameClass(name string, class Class) *TenantStats {
	key := name + "\x00" + string(class)
	s.mu.Lock()
	defer s.mu.Unlock()
	ts, ok := s.per[key]
	if !ok {
		labels := map[string]string{"tenant": name, "class": string(class)}
		ts = &TenantStats{
			Name:      name,
			Class:     class,
			Admitted:  s.reg.Counter(telemetry.LabeledName("tenant.admitted", labels)),
			Shed:      s.reg.Counter(telemetry.LabeledName("tenant.shed", labels)),
			Throttled: s.reg.Counter(telemetry.LabeledName("tenant.throttled", labels)),
			Degraded:  s.reg.Counter(telemetry.LabeledName("tenant.degraded", labels)),
			SLO:       telemetry.NewSLO(s.sloCfg),
		}
		s.per[key] = ts
	}
	return ts
}

// Observe records one finished request into the tenant's SLO window.
func (ts *TenantStats) Observe(endpoint string, o telemetry.Outcome, latency time.Duration) {
	ts.SLO.Observe(endpoint, o, latency)
}

// Summary is the JSON shape of one tenant's /v1/tenants entry.
type Summary struct {
	Tenant    string               `json:"tenant"`
	Class     Class                `json:"class"`
	Admitted  int64                `json:"admitted"`
	Shed      int64                `json:"shed"`
	Throttled int64                `json:"throttled"`
	Degraded  int64                `json:"degraded"`
	Sessions  int64                `json:"decode_sessions,omitempty"`
	Pinned    string               `json:"pinned_model,omitempty"`
	SLO       telemetry.SLOSummary `json:"slo"`
}

// Summaries renders every tracked tenant's summary, name-sorted.
// live maps tenant name to its current resolved identity (for the
// session count and pin); tenants no longer in the config still
// report their counters.
func (s *Stats) Summaries(live map[string]*Tenant) []Summary {
	s.mu.Lock()
	all := make([]*TenantStats, 0, len(s.per))
	for _, ts := range s.per {
		all = append(all, ts)
	}
	s.mu.Unlock()
	sort.Slice(all, func(i, j int) bool {
		if all[i].Name != all[j].Name {
			return all[i].Name < all[j].Name
		}
		return all[i].Class < all[j].Class
	})
	out := make([]Summary, 0, len(all))
	for _, ts := range all {
		sum := Summary{
			Tenant:    ts.Name,
			Class:     ts.Class,
			Admitted:  ts.Admitted.Value(),
			Shed:      ts.Shed.Value(),
			Throttled: ts.Throttled.Value(),
			Degraded:  ts.Degraded.Value(),
			SLO:       ts.SLO.Summary(),
		}
		if t, ok := live[ts.Name]; ok && t.Class == ts.Class {
			sum.Sessions = t.Sessions()
			sum.Pinned = t.Pinned
		}
		out = append(out, sum)
	}
	return out
}
