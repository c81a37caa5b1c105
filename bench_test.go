// Benchmarks regenerating the paper's evaluation (one per figure, plus the
// ablations of DESIGN.md) and real-time micro-benchmarks of the fast paths.
//
// The figure benchmarks run the deterministic virtual-time experiments and
// report the modeled result as vsec_* metrics; ns/op for them measures the
// harness itself. The micro-benchmarks measure real wall time of the
// marshaling, transport and ORB paths. Full sweeps with the paper's
// parameters: `go run ./cmd/pardis-bench`.
package pardis_test

import (
	"fmt"
	"sync"
	"testing"

	"pardis/internal/bench"
	"pardis/internal/cdr"
	"pardis/internal/core"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/future"
	"pardis/internal/nexus"
	"pardis/internal/poa"
	"pardis/internal/rts"
	"pardis/internal/typecode"
)

// BenchmarkFigure2 regenerates Figure 2 (distributed vs local solver
// execution) at a representative problem size.
func BenchmarkFigure2(b *testing.B) {
	var last bench.Fig2Point
	for i := 0; i < b.N; i++ {
		last = bench.Figure2([]int{600})[0]
	}
	b.ReportMetric(last.Direct, "vsec_direct")
	b.ReportMetric(last.Iterative, "vsec_iterative")
	b.ReportMetric(last.Distributed, "vsec_distributed")
	b.ReportMetric(last.SameServer, "vsec_same_server")
}

// BenchmarkFigure4 regenerates Figure 4 (centralized vs distributed single
// objects) at 4 server processors.
func BenchmarkFigure4(b *testing.B) {
	var last bench.Fig4Point
	for i := 0; i < b.N; i++ {
		last = bench.Figure4([]int{4})[0]
	}
	b.ReportMetric(last.Centralized, "vsec_centralized")
	b.ReportMetric(last.Distributed, "vsec_distributed")
	b.ReportMetric(last.Difference, "vsec_difference")
}

// BenchmarkFigure5 regenerates Figure 5 (the pipelined metaapplication) at
// 4 processors per component.
func BenchmarkFigure5(b *testing.B) {
	var last bench.Fig5Point
	for i := 0; i < b.N; i++ {
		last = bench.Figure5([]int{4})[0]
	}
	b.ReportMetric(last.Overall, "vsec_overall")
	b.ReportMetric(last.Diffusion, "vsec_diffusion")
	b.ReportMetric(last.Gradient, "vsec_gradient")
}

// BenchmarkAblationParallelTransfer compares direct thread-to-thread
// argument transfer with the funneled baseline.
func BenchmarkAblationParallelTransfer(b *testing.B) {
	var pts []bench.AblationPoint
	for i := 0; i < b.N; i++ {
		pts = bench.AblationParallelTransfer(250_000)
	}
	b.ReportMetric(pts[0].Seconds, "vsec_direct")
	b.ReportMetric(pts[1].Seconds, "vsec_funneled")
}

// BenchmarkAblationLocalShortcut compares co-located and remote invocation.
func BenchmarkAblationLocalShortcut(b *testing.B) {
	var pts []bench.AblationPoint
	for i := 0; i < b.N; i++ {
		pts = bench.AblationLocalShortcut(100_000)
	}
	b.ReportMetric(pts[0].Seconds, "vsec_colocated")
	b.ReportMetric(pts[1].Seconds, "vsec_remote")
}

// BenchmarkAblationNonBlocking compares overlapped and sequential solver
// invocations.
func BenchmarkAblationNonBlocking(b *testing.B) {
	var pts []bench.AblationPoint
	for i := 0; i < b.N; i++ {
		pts = bench.AblationNonBlocking(400)
	}
	b.ReportMetric(pts[0].Seconds, "vsec_overlap")
	b.ReportMetric(pts[1].Seconds, "vsec_blocking")
}

// BenchmarkAblationOneway compares the two-way and oneway pipelines.
func BenchmarkAblationOneway(b *testing.B) {
	var pts []bench.AblationPoint
	for i := 0; i < b.N; i++ {
		pts = bench.AblationOneway(4)
	}
	b.ReportMetric(pts[0].Seconds, "vsec_twoway")
	b.ReportMetric(pts[1].Seconds, "vsec_oneway")
}

// BenchmarkAblationCommThreads runs the paper's §6 future-work experiment:
// the Figure 5 pipeline with dedicated communication threads doing the
// sending.
func BenchmarkAblationCommThreads(b *testing.B) {
	var pts []bench.AblationPoint
	for i := 0; i < b.N; i++ {
		pts = bench.AblationCommThreads(8)
	}
	b.ReportMetric(pts[0].Seconds, "vsec_single_threaded")
	b.ReportMetric(pts[1].Seconds, "vsec_comm_threads")
}

// BenchmarkAblationRedistribution measures template-to-template
// redistribution in modeled time.
func BenchmarkAblationRedistribution(b *testing.B) {
	var pts []bench.AblationPoint
	for i := 0; i < b.N; i++ {
		pts = bench.AblationRedistribution(500_000)
	}
	for _, p := range pts {
		_ = p
	}
	b.ReportMetric(pts[1].Seconds, "vsec_block_to_cyclic")
	b.ReportMetric(pts[3].Seconds, "vsec_collapsed_to_block")
}

// --- Real-time micro-benchmarks ---------------------------------------------

// BenchmarkMarshalNested measures compiler-style marshaling of the paper's
// matrix type (a sequence of dynamically-sized rows of doubles).
func BenchmarkMarshalNested(b *testing.B) {
	rowTC := typecode.SequenceOf(typecode.TCDouble, 0)
	matTC := typecode.SequenceOf(rowTC, 0)
	rows := make([]any, 64)
	for i := range rows {
		r := make([]float64, 64)
		rows[i] = r
	}
	b.SetBytes(64 * 64 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := cdr.NewEncoder(64 * 64 * 8)
		if err := typecode.Marshal(e, matTC, rows); err != nil {
			b.Fatal(err)
		}
		if _, err := typecode.Unmarshal(cdr.NewDecoder(e.Bytes()), matTC); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCDRDoubles measures the bulk double fast path.
func BenchmarkCDRDoubles(b *testing.B) {
	v := make([]float64, 8192)
	b.SetBytes(8192 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := cdr.NewEncoder(8192 * 8)
		e.PutDoubles(v)
		if got := cdr.NewDecoder(e.Bytes()).GetDoubles(); len(got) != 8192 {
			b.Fatal("bad length")
		}
	}
}

// BenchmarkFutureResolveGet measures future mint/resolve/read overhead.
func BenchmarkFutureResolveGet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := future.NewCell()
		f := future.Of[int](c, 0)
		c.Resolve([]any{i}, nil)
		if v, _ := f.Get(); v != i {
			b.Fatal("bad value")
		}
	}
}

// BenchmarkDSeqRedistribute measures a real block->cyclic redistribution
// over 4 chan-backend threads.
func BenchmarkDSeqRedistribute(b *testing.B) {
	const n = 100_000
	b.SetBytes(n * 8)
	for i := 0; i < b.N; i++ {
		rts.NewChanGroup("bench", 4).Run(func(th rts.Thread) {
			s := dseq.New[float64](th, n, dist.BlockTemplate(), dseq.Float64Codec{})
			s.Redistribute(dist.CyclicTemplate())
		})
	}
}

// BenchmarkScheduleCache measures building a block->cyclic transfer plan
// against hitting the schedule cache with the same shape.
func BenchmarkScheduleCache(b *testing.B) {
	src := dist.BlockTemplate().Layout(250_000, 8)
	dst := dist.CyclicTemplate().Layout(250_000, 8)
	b.Run("miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dist.NewSchedule(src, dst)
		}
	})
	b.Run("hit", func(b *testing.B) {
		cache := dist.NewScheduleCache(16)
		cache.Get(src, dst)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cache.Get(src, dst)
		}
	})
}

// BenchmarkSegmentFanout measures the wall-clock invocation time of the
// 1-client/8-server transfer shape, serial versus the 4-worker fan-out.
func BenchmarkSegmentFanout(b *testing.B) {
	var pts []bench.TransferPoint
	for i := 0; i < b.N; i++ {
		pts = bench.TransferFanout(250_000, 5)
	}
	b.ReportMetric(pts[0].Seconds, "sec_serial")
	b.ReportMetric(pts[1].Seconds, "sec_4workers")
}

// BenchmarkSingleDispatchPipelined measures many-client throughput on one
// single object with and without the POA dispatch pool.
func BenchmarkSingleDispatchPipelined(b *testing.B) {
	var pts []bench.TransferPoint
	for i := 0; i < b.N; i++ {
		pts = bench.TransferSingleDispatch(8, 50)
	}
	b.ReportMetric(pts[0].PerSec, "ops_serial")
	b.ReportMetric(pts[1].PerSec, "ops_4workers")
}

// orbPair wires a single-object echo server and a client over a fabric;
// a non-nil table registers the object for the co-located direct call.
func orbPair(b *testing.B, clientEP, serverEP nexus.Endpoint, table *core.LocalTable) (*core.Binding, func()) {
	b.Helper()
	iface := &core.InterfaceDef{
		Name: "echo",
		Ops: []core.Operation{{
			Name: "echo",
			Params: []core.Param{
				core.NewParam("x", core.In, typecode.SequenceOf(typecode.TCOctet, 0)),
				core.NewParam("y", core.Out, typecode.SequenceOf(typecode.TCOctet, 0)),
			},
		}},
	}
	var wg sync.WaitGroup
	wg.Add(1)
	iorCh := make(chan core.IOR, 1)
	go func() {
		defer wg.Done()
		th := rts.NewChanGroup("srv", 1).Thread(0)
		adapter := poa.New(th, core.NewRouter(serverEP), table)
		adapter.PollInterval = 20e-6
		ior, err := adapter.RegisterSingle("echo-1", iface, poa.ServantFunc(
			func(_ *poa.Context, _ string, in []any) (any, []any, error) {
				return nil, []any{in[0]}, nil
			}))
		if err != nil {
			b.Error(err)
			return
		}
		iorCh <- ior
		adapter.ImplIsReady()
	}()
	orb := core.NewORB(core.NewRouter(clientEP), nil, table)
	bind, err := orb.Bind(<-iorCh, iface)
	if err != nil {
		b.Fatal(err)
	}
	return bind, func() {
		bind.Shutdown("bench done")
		wg.Wait()
	}
}

func benchRoundTrip(b *testing.B, bind *core.Binding, payload int) {
	x := make([]byte, payload)
	b.SetBytes(int64(payload))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vals, err := bind.Invoke("echo", []any{x, nil})
		if err != nil {
			b.Fatal(err)
		}
		if len(vals[0].([]byte)) != payload {
			b.Fatal("bad echo")
		}
	}
}

// BenchmarkORBRoundTripInproc measures a full marshaled request/reply over
// the in-process fabric.
func BenchmarkORBRoundTripInproc(b *testing.B) {
	for _, payload := range []int{64, 65536} {
		b.Run(fmt.Sprintf("payload%d", payload), func(b *testing.B) {
			fab := nexus.NewInproc()
			bind, stop := orbPair(b, fab.NewEndpoint("cli"), fab.NewEndpoint("srv"), nil)
			defer stop()
			benchRoundTrip(b, bind, payload)
		})
	}
}

// BenchmarkORBRoundTripTCP measures a full request/reply over loopback TCP.
func BenchmarkORBRoundTripTCP(b *testing.B) {
	for _, payload := range []int{64, 65536} {
		b.Run(fmt.Sprintf("payload%d", payload), func(b *testing.B) {
			cep, err := nexus.NewTCPEndpoint("")
			if err != nil {
				b.Fatal(err)
			}
			sep, err := nexus.NewTCPEndpoint("")
			if err != nil {
				b.Fatal(err)
			}
			bind, stop := orbPair(b, cep, sep, nil)
			defer stop()
			benchRoundTrip(b, bind, payload)
		})
	}
}

// BenchmarkLocalBypass measures the co-located direct-call shortcut against
// the marshaled path (see BenchmarkORBRoundTripInproc for the contrast).
func BenchmarkLocalBypass(b *testing.B) {
	fab := nexus.NewInproc()
	bind, stop := orbPair(b, fab.NewEndpoint("cli"), fab.NewEndpoint("srv"), core.NewLocalTable())
	defer stop()
	x := make([]byte, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bind.Invoke("echo", []any{x, nil}); err != nil {
			b.Fatal(err)
		}
	}
}
