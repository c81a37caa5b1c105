// Observability gates: tracing overhead on the ORB round trip and hygiene of
// every metric name registered on the default registry. This package imports
// every PARDIS layer, so the registry seen here is the one a deployed
// process exposes.
package pardis_test

import (
	"os"
	"strings"
	"testing"

	"pardis/internal/nexus"
	"pardis/internal/obs"
)

// measureRoundTrip benchmarks the 64-byte TCP echo round trip (the same
// shape as BenchmarkORBRoundTripTCP/payload64) under the current tracer
// state.
func measureRoundTrip() testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
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
		benchRoundTrip(b, bind, 64)
	})
}

// TestTracingOverheadGate is the CI overhead guard: enabling span recording
// may cost at most 5% in allocs/op on the ORB round trip — which in practice
// means zero extra allocations, since the span ring is bounded and span IDs
// are atomic adds. The ns/op half of the guard runs only when
// PARDIS_OVERHEAD_GATE=1 (ci.sh sets it): wall-time ratios between two
// back-to-back benchmark runs are too noisy for an always-on assertion on a
// loaded developer machine.
func TestTracingOverheadGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation and timing measurements are not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("benchmark pair takes seconds; skipped with -short")
	}
	// Alternate off/ring/recorder runs and take the minimum of each: the
	// round trip is microseconds, so scheduler and GC noise between two
	// single benchmark invocations swamps the quantity under test.
	// Interleaving cancels heap-growth drift across runs; the per-state
	// minimum is the standard micro-benchmark de-noiser. The flight
	// recorder is held to the same bound as the ring: its boring path
	// (every benchmark invocation is boring) recycles pooled buffers, so
	// recording must stay amortized-allocation-free.
	var off, on, rec testing.BenchmarkResult
	for i := 0; i < 3; i++ {
		obs.DefaultTracer.Reset()
		o := measureRoundTrip()
		obs.DefaultTracer.Reset()
		obs.DefaultTracer.SetEnabled(true)
		n := measureRoundTrip()
		obs.DefaultTracer.SetEnabled(false)
		obs.DefaultTracer.EnableRecorder(obs.RecorderConfig{})
		r := measureRoundTrip()
		obs.DefaultTracer.DisableRecorder()
		obs.DefaultTracer.SetEnabled(false)
		if i == 0 || o.NsPerOp() < off.NsPerOp() {
			off = o
		}
		if i == 0 || n.NsPerOp() < on.NsPerOp() {
			on = n
		}
		if i == 0 || r.NsPerOp() < rec.NsPerOp() {
			rec = r
		}
	}
	obs.DefaultTracer.Reset()

	offAllocs, onAllocs, recAllocs := off.AllocsPerOp(), on.AllocsPerOp(), rec.AllocsPerOp()
	t.Logf("tracing off: %d ns/op, %d allocs/op; ring: %d ns/op, %d allocs/op; recorder: %d ns/op, %d allocs/op",
		off.NsPerOp(), offAllocs, on.NsPerOp(), onAllocs, rec.NsPerOp(), recAllocs)
	// +0.5 absorbs integer rounding of the amortized ring-growth allocations.
	if float64(onAllocs) > float64(offAllocs)*1.05+0.5 {
		t.Errorf("tracing costs allocations: %d -> %d allocs/op (> 5%%)", offAllocs, onAllocs)
	}
	if float64(recAllocs) > float64(offAllocs)*1.05+0.5 {
		t.Errorf("flight recorder costs allocations: %d -> %d allocs/op (> 5%%)", offAllocs, recAllocs)
	}
	if os.Getenv("PARDIS_OVERHEAD_GATE") == "1" {
		// 5% relative, with a 3µs absolute floor: the multiplexed
		// transport and event-driven POA wakeup brought the round trip
		// from ~1ms down to ~12µs, where a purely relative bound would
		// assert on the cost of reading the clock twice per span (~15
		// spans/op) rather than on regressions. The floor still fails
		// the gate if tracing ever grows per-span work — a pathological
		// recorder costs tens of microseconds, not three.
		limit := float64(off.NsPerOp())*1.05 + 3000
		if float64(on.NsPerOp()) > limit {
			t.Errorf("tracing latency overhead: %d -> %d ns/op (> 5%% + 3µs)", off.NsPerOp(), on.NsPerOp())
		}
		if float64(rec.NsPerOp()) > limit {
			t.Errorf("flight recorder latency overhead: %d -> %d ns/op (> 5%% + 3µs)", off.NsPerOp(), rec.NsPerOp())
		}
	}
}

// TestMetricNameHygiene is the registry lint: every name registered by any
// package init in the tree (this test binary links them all) must be unique
// and well-formed, and the instruments the introspection endpoint is
// documented to serve must actually exist.
func TestMetricNameHygiene(t *testing.T) {
	names := obs.Default.Names()
	if len(names) == 0 {
		t.Fatal("default registry is empty — package metric inits did not run")
	}
	seen := map[string]bool{}
	for _, n := range names {
		if err := obs.CheckName(n); err != nil {
			t.Errorf("malformed metric name %q: %v", n, err)
		}
		if seen[n] {
			t.Errorf("duplicate metric name %q", n)
		}
		seen[n] = true
	}
	for _, want := range []string{
		"orb_requests_total",
		"orb_request_latency_seconds",
		"orb_retries_total",
		"orb_timeouts_total",
		"orb_cancels_total",
		"poa_dispatches_total",
		"poa_dispatch_latency_seconds",
		"poa_dispatch_pool_depth",
		"poa_faults_total",
		"rts_collective_rounds_total",
		"dist_schedule_cache_hits_total",
		"dist_schedule_cache_hit_rate",
		"future_cells_total",
		"nexus_tcp_connections_live",
		"nexus_tcp_bytes_in_total",
		"nexus_tcp_bytes_out_total",
		"nexus_tcp_coalesced_flushes_total",
		"nexus_tcp_coalesced_frames_total",
		"orb_pipeline_depth",
		"rts_bcast_payload_bytes",
		"rts_gather_payload_bytes",
		"rts_allgather_payload_bytes",
		"rts_reduce_payload_bytes",
		"tune_decisions_total",
		"tune_probes_total",
		"tune_switches_total",
		"poa_dispatch_pool_workers",
		"poa_dispatch_pool_resizes_total",
		"stream_chunks_total",
		"stream_peak_buffer_bytes",
		"poa_shed_total",
		"group_failovers_total",
		"group_members",
		"group_resolves_total",
		"group_load_reports_total",
		"group_expired_total",
		"trace_spans_dropped_total",
		"trace_retained_total",
		"trace_recycled_total",
		"orb_slo",
		"poa_slo",
	} {
		if !seen[want] {
			t.Errorf("registry is missing %q", want)
		}
	}

	// The Prometheus exposition must carry every registered name.
	var sb strings.Builder
	if err := obs.Default.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, n := range names {
		if !strings.Contains(text, n) {
			t.Errorf("prometheus exposition dropped %q", n)
		}
	}
}
