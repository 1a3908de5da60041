// Package testkit is the shared test kit: helpers every robustness
// test needs, kept out of the binaries. Only _test.go files import it
// (`make testkit-check` fails when a command or the root package links
// it), so it may trade speed for clarity and imports only the standard
// library — internal/telemetry, server, cluster, decode and registry
// tests can all use it without an import cycle.
//
//   - ParsePrometheus / PromText.Validate: the exposition-format
//     parser and validator the metrics tests check live scrapes with.
//   - NoLeaks: the goroutine-baseline guard for tests that start
//     servers, routers or sessions.
//   - FaultTransport: a seeded fault-injecting http.RoundTripper
//     (delay, stall, reset after headers, body cut mid-frame).
//   - Mappings / MappingAt: this process's /proc/self/smaps, for the
//     tests that check which heap ranges carry huge-page advice.
//
// The in-process shard fleet lives in testkit/fleet (it imports
// internal/cluster), and conformance_test.go holds the bit-identity
// table every classify execution path must pass.
package testkit
