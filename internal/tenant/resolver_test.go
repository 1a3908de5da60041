package tenant

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"enmc/internal/telemetry"
)

func testFile() File {
	return File{
		Tenants: []Spec{
			{Name: "acme", Key: "k-acme", Class: "interactive", Rate: 100, Burst: 10, ModelVersion: "v1", MaxSessions: 2},
			{Name: "bulk", Key: "k-bulk", Class: "batch", Rate: 5},
		},
		Default: &Spec{Name: "public", Class: "standard", Rate: 50},
	}
}

func TestResolveKnownUnknownAndDefault(t *testing.T) {
	r, err := NewResolver(testFile())
	if err != nil {
		t.Fatal(err)
	}
	acme := r.Resolve("k-acme")
	if acme.Name != "acme" || acme.Class != Interactive || acme.Pinned != "v1" {
		t.Fatalf("acme resolved as %+v", acme)
	}
	if got := r.Resolve("nonsense"); got.Name != "public" || got.Class != Standard {
		t.Fatalf("unknown key resolved as %q/%s", got.Name, got.Class)
	}
	if got := r.Resolve(""); got.Name != "public" {
		t.Fatalf("empty key resolved as %q", got.Name)
	}
	// Same generation returns the same identity pointer.
	if r.Resolve("k-acme") != acme {
		t.Fatal("repeat resolve returned a different *Tenant")
	}
}

func TestResolveAnonymousFallback(t *testing.T) {
	r, err := NewResolver(File{Tenants: []Spec{{Name: "a", Key: "k"}}})
	if err != nil {
		t.Fatal(err)
	}
	anon := r.Resolve("")
	if anon.Name != "anonymous" || anon.Class != Standard {
		t.Fatalf("fallback = %+v", anon)
	}
	if ok, _ := anon.Allow(1); !ok {
		t.Fatal("anonymous tenant should be unlimited")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name string
		f    File
	}{
		{"no name", File{Tenants: []Spec{{Key: "k"}}}},
		{"no key", File{Tenants: []Spec{{Name: "a"}}}},
		{"dup key", File{Tenants: []Spec{{Name: "a", Key: "k"}, {Name: "b", Key: "k"}}}},
		{"dup name", File{Tenants: []Spec{{Name: "a", Key: "k1"}, {Name: "a", Key: "k2"}}}},
		{"bad class", File{Tenants: []Spec{{Name: "a", Key: "k", Class: "platinum"}}}},
		{"negative rate", File{Tenants: []Spec{{Name: "a", Key: "k", Rate: -1}}}},
		{"bad default class", File{Default: &Spec{Class: "gold"}}},
	}
	for _, tc := range cases {
		if _, err := NewResolver(tc.f); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestReloadCarriesSessionsAndFlipsQuota(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tenants.json")
	write := func(s string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(`{"tenants":[{"name":"acme","key":"k","class":"interactive","rate":100,"max_sessions":5}]}`)
	r, err := LoadResolver(path)
	if err != nil {
		t.Fatal(err)
	}
	acme := r.Resolve("k")
	if !acme.AcquireSession() || !acme.AcquireSession() {
		t.Fatal("session acquire under cap refused")
	}

	// Flip the quota and cap; sessions must carry, identity refreshes.
	write(`{"tenants":[{"name":"acme","key":"k","class":"interactive","rate":1,"burst":1,"max_sessions":2}]}`)
	if err := r.Reload(); err != nil {
		t.Fatal(err)
	}
	acme2 := r.Resolve("k")
	if acme2 == acme {
		t.Fatal("reload did not produce a new generation")
	}
	if acme2.Sessions() != 2 {
		t.Fatalf("sessions after reload = %d, want 2 carried over", acme2.Sessions())
	}
	if acme2.AcquireSession() {
		t.Fatal("3rd session admitted over the new cap of 2")
	}
	// Release through the OLD handle — same shared counter.
	acme.ReleaseSession()
	if !acme2.AcquireSession() {
		t.Fatal("session refused after release freed a slot")
	}
	// New bucket: burst 1 at 1/s — second request throttles with a
	// whole-second hint.
	acme2.Allow(1)
	ok, retry := acme2.Allow(1)
	if ok || retry < 1 {
		t.Fatalf("quota flip not applied: ok=%v retry=%d", ok, retry)
	}
}

func TestReloadKeepsServingOnBadConfig(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tenants.json")
	if err := os.WriteFile(path, []byte(`{"tenants":[{"name":"a","key":"k"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := LoadResolver(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := []string{
		`{not json`,
		`{"tenants":[{"name":"a"}]}`, // missing key
		`{"tenants":[{"name":"a","key":"k","plan":"x"}]}`, // unknown field
	}
	for _, s := range bad {
		if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := r.Reload(); err == nil {
			t.Errorf("reload accepted %q", s)
		}
		if got := r.Resolve("k"); got.Name != "a" {
			t.Fatalf("previous generation lost after bad reload: %q", got.Name)
		}
	}
}

func TestTenantsListing(t *testing.T) {
	r, err := NewResolver(testFile())
	if err != nil {
		t.Fatal(err)
	}
	all := r.Tenants()
	if len(all) != 3 {
		t.Fatalf("Tenants() len = %d, want 3", len(all))
	}
	if all[0].Name != "acme" || all[1].Name != "bulk" || all[2].Name != "public" {
		t.Fatalf("order: %s, %s, %s", all[0].Name, all[1].Name, all[2].Name)
	}
}

func TestStatsLazyAndStable(t *testing.T) {
	r, _ := NewResolver(testFile())
	st := NewStats(telemetry.NewRegistry(), telemetry.SLOConfig{})
	acme := r.Resolve("k-acme")
	ts := st.For(acme)
	ts.Admitted.Inc()
	ts.Shed.Add(2)
	if got := st.For(acme); got != ts {
		t.Fatal("For returned a new instrument set for the same tenant")
	}
	// Survives a reload: same (name, class) maps to the same counters.
	if err := r.ReplaceConfig(testFile()); err != nil {
		t.Fatal(err)
	}
	ts2 := st.For(r.Resolve("k-acme"))
	if ts2 != ts {
		t.Fatal("reload reset the tenant's instruments")
	}
	live := map[string]*Tenant{}
	for _, t2 := range r.Tenants() {
		live[t2.Name] = t2
	}
	sums := st.Summaries(live)
	if len(sums) != 1 || sums[0].Tenant != "acme" || sums[0].Admitted != 1 || sums[0].Shed != 2 {
		t.Fatalf("summaries: %+v", sums)
	}
	if sums[0].Pinned != "v1" {
		t.Fatalf("summary pin %q", sums[0].Pinned)
	}
}

// FuzzTenantConfig writes every input over a live resolver's config
// file and reloads it. A rejected file leaves the previous generation
// serving; an accepted one resolves each configured key to its tenant,
// lists the tenants name-sorted with the default last, and charges
// quotas without a panic or a negative Retry-After.
func FuzzTenantConfig(f *testing.F) {
	for _, seed := range []string{
		`{"tenants":[{"name":"a","key":"k","class":"batch","rate":5,"burst":2}]}`,
		`{"tenants":[{"name":"a","key":"k"},{"name":"b","key":"k"}]}`,
		`{"tenants":[{"name":"a","key":"k","class":"gold"}]}`,
		`{"tenants":[{"name":"a","key":"k","rate":-1}]}`,
		`{"tenants":[{"name":"a","key":"k","rate":1e-300,"burst":-4}],"default":{"name":"d","rate":1e300}}`,
		`{"tenants":[],"default":{"class":"interactive","max_sessions":-1}}`,
		`{"tenants":[{"name":"a","key":"k","max_sessions":1,"model_version":"v9"}],"extra":1}`,
		`{"tenants":null}`,
		`{`,
	} {
		f.Add([]byte(seed))
	}
	path := filepath.Join(f.TempDir(), "tenants.json")
	good := []byte(`{"tenants":[{"name":"acme","key":"k-acme","class":"interactive"}]}`)
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(path, good, 0o600); err != nil {
			t.Fatal(err)
		}
		r, err := LoadResolver(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o600); err != nil {
			t.Fatal(err)
		}
		if err := r.Reload(); err != nil {
			if got := r.Resolve("k-acme").Name; got != "acme" {
				t.Fatalf("%q rejected (%v), yet k-acme resolves to %q", raw, err, got)
			}
			return
		}
		var file File
		if err := json.Unmarshal(raw, &file); err != nil {
			t.Fatalf("%q accepted but does not decode: %v", raw, err)
		}
		for _, s := range file.Tenants {
			if got := r.Resolve(s.Key); got.Name != s.Name {
				t.Fatalf("%q: key %q resolves to %q, want %q", raw, s.Key, got.Name, s.Name)
			}
		}
		all := r.Tenants()
		if len(all) != len(file.Tenants)+1 || all[len(all)-1] != r.Resolve("") {
			t.Fatalf("%q: %d tenants listed for %d configured, default last", raw, len(all), len(file.Tenants))
		}
		for i, ten := range all {
			if i > 0 && i < len(all)-1 && all[i-1].Name >= ten.Name {
				t.Fatalf("%q: tenants not name-sorted: %q before %q", raw, all[i-1].Name, ten.Name)
			}
			if ok, retry := ten.Allow(1); !ok && retry < 1 {
				t.Fatalf("%q: tenant %q refused with Retry-After %d", raw, ten.Name, retry)
			}
			if ten.AcquireSession() {
				ten.ReleaseSession()
			}
		}
	})
}
