package main

import (
	"fmt"
	"sync"
	"time"

	"pardis/internal/core"
	"pardis/internal/nexus"
	"pardis/internal/poa"
	"pardis/internal/registry"
	"pardis/internal/rts"
)

// singleClient is one TCP client of a single-object workload: its own ORB
// and transport, bound to the object it found through the repository.
type singleClient struct {
	r *core.Router
	b *core.Binding
}

// singleSpec describes a single-object workload: the object served over
// TCP, and the per-client closed loop run against it.
type singleSpec struct {
	name     string
	iface    *core.InterfaceDef
	servant  poa.Servant
	clients  int
	inflight int
	// first makes the client's first invocation and verifies its reply.
	first func(c *singleClient, id int) error
	// loop runs one phase of client id's closed loop.
	loop func(c *singleClient, id int, ph phase) []opRec
}

// setupSingle starts a one-thread server on its own TCP transport hosting
// both the repository and the workload's object, then brings up each
// client: its own TCP transport and ORB, a name lookup through the
// repository (on the same connection the calls will use), Bind, and a
// first verified call. Every knob stays at its default.
func setupSingle(s singleSpec) (*env, error) {
	start := time.Now()
	e := &env{inflight: s.inflight, merge: concat}
	ep, err := nexus.NewTCPEndpoint("")
	if err != nil {
		return nil, fmt.Errorf("server transport: %w", err)
	}
	srvRouter := core.NewRouter(ep)
	adapter := poa.New(rts.NewChanGroup(s.name+"-server", 1).Thread(0), srvRouter, nil)
	repo := registry.NewRepository()
	if _, err := adapter.RegisterSingle(registry.RepositoryKey, registry.Iface(), repo); err != nil {
		srvRouter.Close()
		return nil, err
	}
	ior, err := adapter.RegisterSingle(s.name, s.iface, s.servant)
	if err != nil {
		srvRouter.Close()
		return nil, err
	}
	// The server names its own object: a direct call on the repository
	// servant it hosts, before it starts serving.
	if _, _, err := repo.Invoke(nil, "register", []any{s.name, ior.String()}); err != nil {
		srvRouter.Close()
		return nil, err
	}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		adapter.ImplIsReady()
		srvRouter.Close()
	}()
	addr := string(srvRouter.Addr())

	var mu sync.Mutex
	var routers []*core.Router
	e.abort = func() {
		mu.Lock()
		defer mu.Unlock()
		for _, r := range routers {
			r.Close()
		}
		srvRouter.Close()
	}
	readyc := make(chan ready, s.clients)
	for id := 0; id < s.clients; id++ {
		w := newWorker()
		e.workers = append(e.workers, w)
		e.wg.Add(1)
		go func(id int) {
			defer e.wg.Done()
			c, rd := dialSingle(addr, s, id)
			if c != nil {
				mu.Lock()
				routers = append(routers, c.r)
				mu.Unlock()
			}
			if rd.err == nil {
				rd.err = s.first(c, id)
			}
			readyc <- rd
			if rd.err != nil {
				if c != nil {
					c.r.Close()
				}
				return
			}
			w.serve(func(ph phase) []opRec { return s.loop(c, id, ph) })
			if id == 0 {
				// Client 0 ends the server once every phase is over;
				// close waits for all workers before that matters.
				_ = c.b.Shutdown("benchmark done")
			}
			c.r.Close()
		}(id)
	}
	var firstErr error
	for id := 0; id < s.clients; id++ {
		rd := <-readyc
		if rd.err != nil && firstErr == nil {
			firstErr = rd.err
		}
		if rd.lookupNS > 0 && e.lookupNS == 0 {
			e.lookupNS, e.bindNS = rd.lookupNS, rd.bindNS
		}
	}
	e.setupNS = time.Since(start).Nanoseconds()
	if firstErr != nil {
		e.abort()
		e.close(10 * time.Second)
		return nil, firstErr
	}
	e.connsLive = int64(readMetric("nexus_tcp_connections_live"))
	return e, nil
}

// dialSingle creates one client's transport and ORB, looks the object up
// in the repository and binds to it.
func dialSingle(addr string, s singleSpec, id int) (*singleClient, ready) {
	ep, err := nexus.NewTCPEndpoint("")
	if err != nil {
		return nil, ready{err: fmt.Errorf("client %d transport: %w", id, err)}
	}
	c := &singleClient{r: core.NewRouter(ep)}
	orb := core.NewORB(c.r, nil, nil)
	repo, err := registry.Open(orb, addr)
	if err != nil {
		return c, ready{err: err}
	}
	t0 := time.Now()
	ior, err := repo.Lookup(s.name)
	if err != nil {
		return c, ready{err: fmt.Errorf("client %d lookup: %w", id, err)}
	}
	t1 := time.Now()
	c.b, err = orb.Bind(ior, s.iface)
	if err != nil {
		return c, ready{err: fmt.Errorf("client %d bind: %w", id, err)}
	}
	rd := ready{lookupNS: t1.Sub(t0).Nanoseconds(), bindNS: time.Since(t1).Nanoseconds()}
	if id != 0 {
		rd.lookupNS, rd.bindNS = 0, 0
	}
	return c, rd
}
