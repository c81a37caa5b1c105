package main

import (
	"fmt"
	"runtime"
	"time"

	"pardis/internal/cdr"
	"pardis/internal/dist"
	"pardis/internal/nexus"
	"pardis/internal/pgiop"
	"pardis/internal/rts"
)

// A probe is one isolated call into a layer's public function, timed over
// a fixed number of iterations after the workload's environment is torn
// down, so nothing else runs beside it.
type probeResult struct {
	ns, allocs, bytes float64 // per iteration
}

// measure runs f once to warm up, then iters times, and reports the mean
// time, heap allocations and heap bytes per iteration. The allocation
// figures include any goroutine the probe's fabric runs (TCP readers).
func measure(iters int, f func() error) (probeResult, error) {
	if err := f(); err != nil {
		return probeResult{}, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		if err := f(); err != nil {
			return probeResult{}, err
		}
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	n := float64(iters)
	return probeResult{
		ns:     float64(el.Nanoseconds()) / n,
		allocs: float64(m1.Mallocs-m0.Mallocs) / n,
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / n,
	}, nil
}

// sendRecv is a probe body: one frame from a to b, received by b.
func sendRecv(a, b nexus.Endpoint, bufs ...[]byte) func() error {
	return func() error {
		if err := a.SendV(b.Addr(), bufs...); err != nil {
			return err
		}
		_, err := b.Recv()
		return err
	}
}

func tcpProbe(size, iters int) (probeResult, error) {
	a, err := nexus.NewTCPEndpoint("")
	if err != nil {
		return probeResult{}, err
	}
	defer a.Close()
	b, err := nexus.NewTCPEndpoint("")
	if err != nil {
		return probeResult{}, err
	}
	defer b.Close()
	return measure(iters, sendRecv(a, b, make([]byte, size)))
}

func inprocProbe(size, iters int) (probeResult, error) {
	fab := nexus.NewInproc()
	a, b := fab.NewEndpoint("probe-a"), fab.NewEndpoint("probe-b")
	defer a.Close()
	defer b.Close()
	// A header and a payload, the shape of a vectored ORB send.
	return measure(iters, sendRecv(a, b, make([]byte, 64), make([]byte, size)))
}

func pgiopProbe(iters int) (probeResult, error) {
	req := &pgiop.Request{
		BindingID: "tcp://127.0.0.1:40000#1", SeqNo: 7, ReqID: 42,
		ClientSize: 1, ReplyAddr: "tcp://127.0.0.1:40000",
		ObjectKey: "echo", Operation: "echo", Body: make([]byte, 4+echoSize),
	}
	return measure(iters, func() error {
		_, err := pgiop.DecodeRequest(pgiop.EncodeRequest(req))
		return err
	})
}

// cdrProbe encodes and decodes one server rank's block of the spmd scale
// argument.
func cdrProbe(iters int) (probeResult, error) {
	v := make([]float64, spmdScaleN/spmdRanks)
	dst := make([]float64, len(v))
	return measure(iters, func() error {
		e := cdr.GetEncoder(8*len(v) + 8)
		e.PutDoubles(v)
		d := cdr.GetDecoder(e.Bytes())
		n := int(d.GetULong())
		ok := n == len(dst) && d.GetDoublesInto(dst)
		d.Release()
		e.Release()
		if !ok {
			return fmt.Errorf("cdr probe: decoded %d doubles", n)
		}
		return nil
	})
}

// distProbe looks up the spmd client→server schedule, a cache hit after
// the first call.
func distProbe(iters int) (probeResult, error) {
	src := spmdClientDist().Layout(spmdScaleN, spmdRanks)
	dst := dist.BlockTemplate().Layout(spmdScaleN, spmdRanks)
	return measure(iters, func() error {
		if dist.Cached(src, dst) == nil {
			return fmt.Errorf("dist probe: no schedule")
		}
		return nil
	})
}

// agreementFrame is the size of one dispatch agreement broadcast carrying
// a single spmd decision (count, encoded request and client list).
const agreementFrame = 256

// bcastProbe runs rounds 2-rank broadcasts per iteration on the chan
// backend, the fabric of the spmd server's agreement.
func bcastProbe(iters int) (probeResult, error) {
	const rounds = 100
	g := rts.NewChanGroup("probe-bcast", spmdRanks)
	frame := make([]byte, agreementFrame)
	r, err := measure(iters, func() error {
		g.Run(func(th rts.Thread) {
			var data []byte
			if th.Rank() == 0 {
				data = frame
			}
			for i := 0; i < rounds; i++ {
				rts.Bcast(th, 0, data)
			}
		})
		return nil
	})
	r.ns /= rounds
	r.allocs /= rounds
	r.bytes /= rounds
	return r, err
}

// runProbes runs every probe and returns its metrics.
func runProbes() (map[string]float64, error) {
	probes := []struct {
		name string
		run  func() (probeResult, error)
	}{
		{"tcp_64B", func() (probeResult, error) { return tcpProbe(64, 4000) }},
		{"tcp_64KiB", func() (probeResult, error) { return tcpProbe(64<<10, 1000) }},
		{"inproc_64KiB", func() (probeResult, error) { return inprocProbe(64<<10, 2000) }},
		{"pgiop_request", func() (probeResult, error) { return pgiopProbe(20000) }},
		{"cdr_doubles", func() (probeResult, error) { return cdrProbe(20) }},
		{"dist_cached", func() (probeResult, error) { return distProbe(100000) }},
		{"rts_bcast", func() (probeResult, error) { return bcastProbe(50) }},
	}
	out := map[string]float64{}
	for _, p := range probes {
		r, err := p.run()
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
		out["probe."+p.name+".ns_per_op"] = r.ns
		out["probe."+p.name+".allocs_per_op"] = r.allocs
		out["probe."+p.name+".B_per_op"] = r.bytes
	}
	return out, nil
}
