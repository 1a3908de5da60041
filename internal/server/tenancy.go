package server

import (
	"net/http"
	"strconv"

	"enmc/internal/tenant"
)

// Tenancy glue: the middleware resolves X-Enmc-Api-Key once per
// request and stashes the identity in the request metadata; handlers
// charge quotas and attribute counters through it.

// tenantFor returns the request's resolved tenant: the middleware's
// resolution when present, else a direct lookup (direct-handler
// tests and non-instrumented paths).
func (s *Server) tenantFor(r *http.Request) *tenant.Tenant {
	if meta := metaFrom(r.Context()); meta != nil && meta.tenant != nil {
		return meta.tenant
	}
	return s.tenants.Resolve(r.Header.Get(tenant.HeaderAPIKey))
}

// Tenants returns the server's tenant resolver (the built-in
// single-tenant resolver when none was configured).
func (s *Server) Tenants() *tenant.Resolver { return s.tenants }

// allowQuota charges cost tokens against the tenant's rate quota. On
// refusal it answers 429 with the bucket's actual refill time as
// Retry-After and reason "quota", and reports false.
func (s *Server) allowQuota(w http.ResponseWriter, r *http.Request, ten *tenant.Tenant, ts *tenant.TenantStats, cost float64) bool {
	ok, retry := ten.Allow(cost)
	if ok {
		return true
	}
	ts.Throttled.Inc()
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	writeErrorReason(w, r, http.StatusTooManyRequests, "quota",
		"tenant "+ten.Name+" rate limit exceeded")
	return false
}

// TenantsResponse is the GET /v1/tenants body.
type TenantsResponse struct {
	Tenants []tenant.Summary `json:"tenants"`
}

// handleTenants reports every tracked tenant's QoS counters, live
// decode-session count, model pin, and rolling SLO window: GET
// /v1/tenants.
func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	live := map[string]*tenant.Tenant{}
	for _, t := range s.tenants.Tenants() {
		live[t.Name] = t
	}
	writeJSON(w, http.StatusOK, TenantsResponse{Tenants: s.tstats.Summaries(live)})
}
