package tenant

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// Tenant is one resolved identity: the immutable runtime state built
// from a Spec. Lookups return the same *Tenant until the next config
// reload; state that must survive a reload (the decode-session count)
// lives behind pointers carried over by name.
type Tenant struct {
	Name   string
	Class  Class
	Pinned string // registry model version, "" = active model

	// bucket is nil for unlimited tenants.
	bucket *Bucket

	// sessions counts the tenant's live decode sessions; shared with
	// the Tenant object of the same name across config reloads so a
	// quota flip never loses track of in-flight sessions.
	sessions    *atomic.Int64
	maxSessions int
}

// Allow charges cost tokens against the tenant's rate quota. For
// unlimited tenants it always admits.
func (t *Tenant) Allow(cost float64) (ok bool, retryAfter int) {
	if t.bucket == nil {
		return true, 0
	}
	ok, wait := t.bucket.Take(cost)
	if ok {
		return true, 0
	}
	secs := int(wait.Seconds() + 0.999) // ceil; Retry-After is whole seconds
	if secs < 1 {
		secs = 1
	}
	return false, secs
}

// AcquireSession counts one decode session against the tenant's
// session cap; false means the cap is reached. Release with
// ReleaseSession exactly once per successful acquire.
func (t *Tenant) AcquireSession() bool {
	if t.maxSessions <= 0 {
		t.sessions.Add(1)
		return true
	}
	for {
		cur := t.sessions.Load()
		if cur >= int64(t.maxSessions) {
			return false
		}
		if t.sessions.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// ReleaseSession returns a session slot.
func (t *Tenant) ReleaseSession() { t.sessions.Add(-1) }

// Sessions returns the tenant's live decode-session count.
func (t *Tenant) Sessions() int64 { return t.sessions.Load() }

// MaxSessions returns the tenant's decode-session cap (0 = uncapped).
func (t *Tenant) MaxSessions() int { return t.maxSessions }

// table is one immutable resolved config generation.
type table struct {
	byKey map[string]*Tenant
	def   *Tenant
	all   []*Tenant // name-sorted, def/anonymous excluded
}

// Resolver maps API keys to tenants against the current config
// generation. Resolve is one atomic pointer load — safe on the
// admission path — while Reload re-reads the config file and swaps
// the whole generation in atomically (hot reload under live traffic).
type Resolver struct {
	path string
	cur  atomic.Pointer[table]

	// reloadMu serializes Reload so concurrent SIGHUPs can't interleave
	// the read-carry-swap sequence.
	reloadMu sync.Mutex
}

// NewResolver builds a resolver from an already-parsed config (tests,
// embedded defaults). The file is validated.
func NewResolver(f File) (*Resolver, error) {
	r := &Resolver{}
	t, err := buildTable(f, nil)
	if err != nil {
		return nil, err
	}
	r.cur.Store(t)
	return r, nil
}

// LoadResolver reads, validates and installs the config at path; the
// path is retained for Reload.
func LoadResolver(path string) (*Resolver, error) {
	r := &Resolver{path: path}
	if err := r.Reload(); err != nil {
		return nil, err
	}
	return r, nil
}

// Reload re-reads the config file and atomically swaps the resolved
// table. On any error the previous generation keeps serving. Session
// counters are carried over by tenant name, so a reload never loses
// track of live decode sessions; rate buckets restart full at the new
// rate (a quota flip takes effect immediately).
func (r *Resolver) Reload() error {
	if r.path == "" {
		return fmt.Errorf("tenant: resolver has no config path")
	}
	r.reloadMu.Lock()
	defer r.reloadMu.Unlock()
	raw, err := os.ReadFile(r.path)
	if err != nil {
		return fmt.Errorf("tenant: %w", err)
	}
	var f File
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return fmt.Errorf("tenant: %s: %w", r.path, err)
	}
	// One object and nothing after it: a file holding two configs, or
	// one followed by debris, is not silently read as its first.
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("tenant: %s: data after the config object", r.path)
	}
	t, err := buildTable(f, r.cur.Load())
	if err != nil {
		return fmt.Errorf("tenant: %s: %w", r.path, err)
	}
	r.cur.Store(t)
	return nil
}

// ReplaceConfig swaps in an already-parsed config (tests and
// embedding servers without a file on disk).
func (r *Resolver) ReplaceConfig(f File) error {
	r.reloadMu.Lock()
	defer r.reloadMu.Unlock()
	t, err := buildTable(f, r.cur.Load())
	if err != nil {
		return err
	}
	r.cur.Store(t)
	return nil
}

func buildTable(f File, prev *table) (*table, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	// Carry decode-session counters across the reload by name.
	carried := map[string]*atomic.Int64{}
	if prev != nil {
		for _, t := range prev.all {
			carried[t.Name] = t.sessions
		}
		if prev.def != nil {
			carried[prev.def.Name] = prev.def.sessions
		}
	}
	build := func(s Spec) *Tenant {
		class, _ := ParseClass(s.Class)
		t := &Tenant{
			Name:        s.Name,
			Class:       class,
			Pinned:      s.ModelVersion,
			maxSessions: s.MaxSessions,
		}
		if s.Rate > 0 {
			t.bucket = NewBucket(s.Rate, s.Burst)
		}
		if sess, ok := carried[s.Name]; ok {
			t.sessions = sess
		} else {
			t.sessions = &atomic.Int64{}
		}
		return t
	}
	tab := &table{byKey: make(map[string]*Tenant, len(f.Tenants))}
	for _, s := range f.Tenants {
		t := build(s)
		tab.byKey[s.Key] = t
		tab.all = append(tab.all, t)
	}
	sort.Slice(tab.all, func(i, j int) bool { return tab.all[i].Name < tab.all[j].Name })
	if f.Default != nil {
		d := *f.Default
		if d.Name == "" {
			d.Name = "default"
		}
		tab.def = build(d)
	} else {
		tab.def = build(Spec{Name: "anonymous"})
	}
	return tab, nil
}

// Resolve maps an API key (the X-Enmc-Api-Key header value) to a
// tenant. Unknown or empty keys resolve to the config's default
// tenant, or the built-in anonymous identity when none is configured.
func (r *Resolver) Resolve(key string) *Tenant {
	t := r.cur.Load()
	if key != "" {
		if ten, ok := t.byKey[key]; ok {
			return ten
		}
	}
	return t.def
}

// Tenants returns the current generation's named tenants plus the
// default identity, name-sorted — the /v1/tenants listing.
func (r *Resolver) Tenants() []*Tenant {
	t := r.cur.Load()
	out := make([]*Tenant, 0, len(t.all)+1)
	out = append(out, t.all...)
	out = append(out, t.def)
	return out
}
