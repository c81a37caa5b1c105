package bench

import (
	"runtime"
	"sync"
	"time"

	"pardis/internal/core"
	"pardis/internal/future"
	"pardis/internal/nexus"
	"pardis/internal/poa"
	"pardis/internal/typecode"
)

// FaninPoint is one row of the connection-scale fan-in figure: many
// concurrent clients invoking one 4-rank SPMD server over real TCP, either
// multiplexing their channels over shared transports ("mux") or opening one
// socket per client ("per-conn", the pre-multiplexing shape).
type FaninPoint struct {
	Mode           string  `json:"mode"`
	Clients        int     `json:"clients"`
	ReqPerSec      float64 `json:"req_per_sec"`
	BytesPerClient float64 `json:"resident_bytes_per_client"`
	Conns          int     `json:"physical_connections"` // server-side inbound sockets
}

// FaninLevels is the full client sweep; FaninQuickLevels the -quick trim.
var (
	FaninLevels      = []int{1_000, 10_000, 100_000}
	FaninQuickLevels = []int{1_000, 10_000}

	// FaninBaselineClients caps the per-conn baseline: every client costs
	// three file descriptors (its listener plus both ends of its socket),
	// so the baseline hits OS limits at scales the multiplexed transport
	// shrugs off — which is the point of the figure.
	FaninBaselineClients = 512

	// faninWorkers bounds the driver goroutines; each owns a shard of
	// clients (and, in mux mode, the one transport those clients share).
	faninWorkers = 64

	// faninPipeline is how many requests each client keeps in flight
	// during the timed phase.
	faninPipeline = 4
)

// Fanin measures sustained request rate and resident bytes per client at
// each mux level, plus the capped per-conn baseline for the memory ratio.
func Fanin(levels []int, baseline int) []FaninPoint {
	pts := make([]FaninPoint, 0, len(levels)+1)
	for _, n := range levels {
		pts = append(pts, faninRun("mux", n))
	}
	pts = append(pts, faninRun("per-conn", baseline))
	return pts
}

func faninIface() *core.InterfaceDef {
	return &core.InterfaceDef{
		Name: "fanin",
		Ops: []core.Operation{{
			Name:   "ping",
			Params: []core.Param{core.NewParam("x", core.In, typecode.TCLong)},
			Result: typecode.TCLong,
		}},
	}
}

type faninServant struct{}

func (faninServant) Invoke(ctx *poa.Context, op string, in []any) (any, []any, error) {
	return in[0].(int32) + 1, nil, nil
}

func faninRun(mode string, n int) FaninPoint {
	// The 4-rank SPMD server: all four ranks' ORB endpoints are channels of
	// one shared TCP transport — the server side of the fan-in holds one
	// listener regardless of rank count.
	srvT, err := nexus.NewTCPTransport("")
	if err != nil {
		panic(err)
	}
	stopEP, err := nexus.NewTCPEndpoint("")
	if err != nil {
		panic(err)
	}
	ior, stop := startServer(4, 50e-6, srvT.NewChannel, stopEP, func(p *poa.POA) (core.IOR, error) {
		return p.RegisterSPMD("fanin-1", faninIface(), faninServant{})
	})

	workers := faninWorkers
	if n < workers {
		workers = n
	}
	shard := func(w int) (int, int) {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		return lo, hi
	}
	eachWorker := func(body func(w, lo, hi int)) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				lo, hi := shard(w)
				body(w, lo, hi)
			}(w)
		}
		wg.Wait()
	}

	// In mux mode one transport per worker carries that worker's whole
	// client shard; per-conn gives every client its own transport.
	trans := make([]*nexus.TCPTransport, workers)
	if mode == "mux" {
		for w := range trans {
			t, err := nexus.NewTCPTransport("")
			if err != nil {
				panic(err)
			}
			trans[w] = t
		}
	}
	bindings := make([]*core.Binding, n)
	eps := make([]nexus.Endpoint, n)
	eachWorker(func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			var ep nexus.Endpoint
			if mode == "mux" {
				ep = trans[w].NewChannel()
			} else {
				var err error
				ep, err = nexus.NewTCPEndpoint("")
				if err != nil {
					panic(err)
				}
			}
			b, err := core.NewORB(core.NewRouter(ep), nil, nil).SPMDBind(ior, faninIface())
			if err != nil {
				panic(err)
			}
			bindings[i], eps[i] = b, ep
		}
	})

	// Memory is measured as the bytes each client's *connection* costs:
	// the resident delta between all clients fully constructed (bindings
	// in place, no socket open yet — ORB and binding state is identical
	// in both modes) and every physical connection established. The
	// connections are raised with a junk frame the server router drops,
	// so the delta holds sockets, reader goroutines and conn buffers —
	// not protocol state, which both modes pay identically per client.
	var m0 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	rank0 := nexus.Addr(ior.Addrs[0])
	eachWorker(func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			if err := eps[i].Send(rank0, []byte{0xff}); err != nil {
				panic(err)
			}
		}
	})
	var m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m1)
	perClient := 0.0
	if after, before := m1.HeapAlloc+m1.StackInuse, m0.HeapAlloc+m0.StackInuse; after > before {
		perClient = float64(after-before) / float64(n)
	}

	// Warm round: touches the whole invoke path once per client so the
	// timed phase measures the sustained rate, not first-use setup.
	eachWorker(func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			if _, err := bindings[i].Invoke("ping", []any{int32(i)}); err != nil {
				panic(err)
			}
		}
	})
	// Counted only now: the server registers an inbound socket when its
	// read loop has taken the hello, which a returned junk-frame Send does
	// not wait for; a reply to every client proves every hello was read.
	conns := srvT.ConnCount()

	// Timed phase: every client keeps faninPipeline requests in flight on
	// its channel; replies interleave freely on the shared sockets.
	start := time.Now()
	eachWorker(func(w, lo, hi int) {
		cells := make([]*future.Cell, 0, (hi-lo)*faninPipeline)
		for i := lo; i < hi; i++ {
			for k := 0; k < faninPipeline; k++ {
				c, err := bindings[i].InvokeNB("ping", []any{int32(k)})
				if err != nil {
					panic(err)
				}
				cells = append(cells, c)
			}
		}
		for _, c := range cells {
			if _, err := c.Values(); err != nil {
				panic(err)
			}
		}
	})
	elapsed := time.Since(start).Seconds()

	stop()
	eachWorker(func(w, lo, hi int) {
		if mode == "mux" {
			trans[w].Close()
			return
		}
		for i := lo; i < hi; i++ {
			bindings[i].ORB().Router().Close()
		}
	})
	srvT.Close()

	return FaninPoint{
		Mode:           mode,
		Clients:        n,
		ReqPerSec:      float64(n*faninPipeline) / elapsed,
		BytesPerClient: perClient,
		Conns:          conns,
	}
}
