// Package fleet runs an in-process shard fleet for tests: N shards ×
// R replicas of cluster.Worker, each replica on a loopback listener the
// test owns, so a replica can crash (Kill: the listener and every open
// connection drop at once) and come back on the same address
// (Restart). It is a test kit: only _test.go files import it.
//
// internal/cluster's own tests cannot use it (fleet imports cluster);
// they keep their httptest-based startWorkers.
package fleet

import (
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"enmc/internal/cluster"
	"enmc/internal/distributed"
)

// Replica is one in-process shard worker.
type Replica struct {
	// Addr is the host:port the replica listens on; it survives a
	// Kill, so Restart comes back where the router expects it.
	Addr string
	// Screens counts the screen RPCs this replica received.
	Screens atomic.Int64

	handler http.Handler
	srv     *http.Server
	done    chan struct{}
}

// listen serves the replica on addr ("127.0.0.1:0" the first time).
func (r *Replica) listen(t testing.TB, addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	r.Addr = ln.Addr().String()
	r.srv = &http.Server{Handler: r.handler}
	r.done = make(chan struct{})
	go func(srv *http.Server, done chan struct{}) {
		defer close(done)
		_ = srv.Serve(ln) // ErrServerClosed after Kill
	}(r.srv, r.done)
}

// Kill drops the listener and every open connection at once, as a
// crashed process would. Killing a dead replica is a no-op.
func (r *Replica) Kill() {
	if r.srv == nil {
		return
	}
	_ = r.srv.Close() // the listener and connections are all it owns
	<-r.done
	r.srv = nil
}

// Restart serves the replica again on its old address.
func (r *Replica) Restart(t testing.TB) {
	t.Helper()
	r.listen(t, r.Addr)
}

// Fleet is the running fleet: Shards[i][j] is replica j of shard i.
type Fleet struct {
	Shards [][]*Replica
}

// Start serves every shard from `replicas` workers of its own (one
// cluster.Worker per replica, as separate processes loading the same
// artifact would have). setup, when non-nil, configures each worker
// before it serves — a request log, say. A cleanup kills the fleet.
func Start(t testing.TB, shards []distributed.Shard, replicas int, setup func(*cluster.Worker)) *Fleet {
	t.Helper()
	f := &Fleet{Shards: make([][]*Replica, len(shards))}
	t.Cleanup(f.Kill)
	for i, sh := range shards {
		for j := 0; j < replicas; j++ {
			w, err := cluster.NewWorker(sh)
			if err != nil {
				t.Fatal(err)
			}
			if setup != nil {
				setup(w)
			}
			rep := &Replica{}
			inner := w.Handler()
			rep.handler = http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
				if req.URL.Path == "/v1/shard/screen" {
					rep.Screens.Add(1)
				}
				inner.ServeHTTP(rw, req)
			})
			rep.listen(t, "127.0.0.1:0")
			f.Shards[i] = append(f.Shards[i], rep)
		}
	}
	return f
}

// Kill kills every replica.
func (f *Fleet) Kill() {
	for _, reps := range f.Shards {
		for _, rep := range reps {
			rep.Kill()
		}
	}
}

// Spec is the shard map in cluster.ParseShardMap syntax (the
// enmc-serve -cluster flag): replicas joined by ',', shards by ';'.
func (f *Fleet) Spec() string {
	groups := make([]string, len(f.Shards))
	for i, reps := range f.Shards {
		addrs := make([]string, len(reps))
		for j, rep := range reps {
			addrs[j] = rep.Addr
		}
		groups[i] = strings.Join(addrs, ",")
	}
	return strings.Join(groups, ";")
}

// ShardMap is the fleet as a cluster.RouterConfig shard map.
func (f *Fleet) ShardMap() [][]string {
	out := make([][]string, len(f.Shards))
	for i, reps := range f.Shards {
		for _, rep := range reps {
			out[i] = append(out[i], "http://"+rep.Addr)
		}
	}
	return out
}
