package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

const mib = 1 << 20

// endToEnd fills the metrics a user of the system sees, from one untraced
// phase. Every per-invocation figure divides by the invocations attempted.
func endToEnd(m map[string]float64, recs []opRec, d delta) {
	ops := float64(len(recs))
	secs := float64(d.after.wallNS-d.before.wallNS) / 1e9
	ok, payload := 0.0, 0.0
	for _, r := range recs {
		if r.fail == opOK {
			ok++
			payload += float64(r.bytes)
		}
	}
	small, large := latencies(recs)
	if len(large) == 0 {
		// echo has one op: its large op is its small op.
		large = small
	}
	m["ops_per_s"] = ok / secs
	m["small_p50_us"] = quantile(small, 0.5)
	m["large_p50_us"] = quantile(large, 0.5)
	m["payload_MiB_per_s"] = payload / mib / secs
	m["cpu_us_per_op"] = float64(d.after.cpuNS-d.before.cpuNS) / 1e3 / ops
	m["heap_B_per_op"] = float64(d.after.bytes-d.before.bytes) / ops
	f := countFailures(recs)
	m["ops.failed_frac"] = float64(f.failed) / ops
	m["ops.refused"] = float64(f.refused)
	m["ops.wrong"] = float64(f.wrong)
	m["ops.samples"] = ops
	m["tail.small_pct"], m["tail.small_us"] = tail(small)
	m["tail.large_pct"], m["tail.large_us"] = tail(large)
}

// ratio divides, reading 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerCounters fills the per-layer metrics read from the program's own
// obs.Default counters over the untraced phase.
func layerCounters(m map[string]float64, recs []opRec, d delta) {
	ops := float64(len(recs))
	payload := 0.0
	for _, r := range recs {
		payload += float64(r.bytes)
	}
	m["core.pipeline_depth_p50"] = d.after.reg["orb_pipeline_depth.p50"]
	m["core.retries_per_op"] = ratio(d.reg("orb_retries_total"), ops)
	m["core.timeouts_per_op"] = ratio(d.reg("orb_timeouts_total"), ops)
	m["core.sheds_per_op"] = ratio(d.reg("orb_sheds_total"), ops)

	// Client and server share the process, so every wire byte is counted
	// once out and once in; wire bytes per op are the bytes sent.
	wire := ratio(d.reg("nexus_tcp_bytes_out_total"), ops)
	m["nexus.wire_B_per_op"] = wire
	m["nexus.overhead_B_per_op"] = 0
	if wire > 0 {
		m["nexus.overhead_B_per_op"] = wire - payload/ops
	}
	m["nexus.frames_per_flush"] = ratio(d.reg("nexus_tcp_coalesced_frames_total"), d.reg("nexus_tcp_coalesced_flushes_total"))

	phases := d.reg("poa_agreement_phases_total")
	m["poa.agreement_phases_per_op"] = ratio(phases, ops)
	m["poa.agreement_useful_frac"] = ratio(d.reg("poa_dispatches_total"), phases)
	m["poa.dispatch_p50_us"] = d.after.reg["poa_dispatch_latency_seconds.p50"] * 1e6

	m["rts.rounds_per_op"] = ratio(d.reg("rts_collective_rounds_total"), ops)
	m["rts.bcast_per_op"] = ratio(d.reg("rts_bcast_total"), ops)
	m["rts.allreduce_per_op"] = ratio(d.reg("rts_allreduce_total"), ops)

	hits, misses := d.reg("dist_schedule_cache_hits_total"), d.reg("dist_schedule_cache_misses_total")
	m["dist.schedule_hit_frac"] = ratio(hits, hits+misses)
	m["stream.chunks_per_op"] = ratio(d.reg("stream_chunks_total"), ops)
	m["stream.peak_buffer_B"] = d.after.reg["stream_peak_buffer_bytes"]
	m["tune.probes_per_kop"] = 1000 * ratio(d.reg("tune_probes_total"), ops)
	m["tune.switches_per_kop"] = 1000 * ratio(d.reg("tune_switches_total"), ops)

	m["go.allocs_per_op"] = ratio(float64(d.after.mallocs-d.before.mallocs), ops)
	m["go.gc_per_kop"] = 1000 * ratio(float64(d.after.gcs-d.before.gcs), ops)
}

// layerSpans fills the per-layer metrics of the traced phase: self times
// per invocation and per rank, and the tracing overhead against the
// untraced phase measured just before.
func layerSpans(m map[string]float64, recs []opRec, st *selfTimes, dropped uint64) {
	ops := len(recs)
	for metricName, span := range map[string]string{
		"core.issue_us":         "core.issue",
		"stub.invoke.self_us":   "stub.invoke",
		"orb.send.self_us":      "orb.send",
		"future.wait_us":        "future.wait",
		"pgiop.encode.self_us":  "pgiop.encode",
		"pgiop.decode.self_us":  "pgiop.decode",
		"poa.agreement.self_us": "poa.agreement",
		"poa.collect.self_us":   "poa.collect",
		"poa.dispatch.self_us":  "poa.dispatch",
		"poa.servant_us":        "poa.servant",
		"rts.bcast.self_us":     "rts.bcast",
		"rts.allreduce.self_us": "rts.allreduce",
	} {
		m[metricName] = st.perOp(span, ops)
	}
	small, _ := latencies(recs)
	m["trace.overhead_frac"] = ratio(quantile(small, 0.5), m["small_p50_us"]) - 1
	m["trace.spans_dropped"] = float64(dropped)
	m["trace.ops"] = float64(ops)
}

// spec is the part of BENCHMARK.json the benchmark checks itself against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	seen := map[string]bool{}
	for _, n := range sp.names() {
		if !nameRE.MatchString(n) {
			return nil, fmt.Errorf("%s: bad name %q", path, n)
		}
		if seen[n] {
			return nil, fmt.Errorf("%s: name %q used twice", path, n)
		}
		seen[n] = true
	}
	return &sp, nil
}

func (sp *spec) names() []string {
	var ns []string
	for _, w := range sp.Workloads {
		ns = append(ns, w.Name)
	}
	for _, d := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
		ns = append(ns, d.Name)
	}
	return ns
}

func (sp *spec) hasWorkload(name string) bool {
	for _, w := range sp.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
