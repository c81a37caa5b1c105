package bench

import "pardis/internal/core"

// The stream experiments compare the staged segment sender (each move's
// whole payload encoded into one buffer before its frame is sent) against
// the chunked streaming pipeline, across payload sizes. Two things are
// measured per configuration: wall-clock round-trip throughput, and the
// peak payload-encoder residency the transfer reached — the number the
// bounded-memory claim is about. Real goroutines and wall clocks, like the
// other transfer-engine experiments: compare modes within one run.

// StreamPoint is one (mode, payload) configuration's result.
type StreamPoint struct {
	Mode         string  `json:"mode"` // "staged" or "streamed"
	PayloadBytes int     `json:"payload_bytes"`
	ChunkBytes   int     `json:"chunk_bytes,omitempty"` // 0 for staged
	Seconds      float64 `json:"seconds"`               // per round trip
	MBPerSec     float64 `json:"mb_per_sec"`            // payload moved both ways
	PeakBuffer   int64   `json:"peak_buffer_bytes"`
	ChunkFrames  uint64  `json:"chunk_frames"` // ArgStream frames per round trip
}

// StreamPayloads is the full payload sweep (bytes of doubles per transfer
// direction): 1 MiB, 64 MiB, 512 MiB.
var StreamPayloads = []int{1 << 20, 64 << 20, 512 << 20}

// StreamQuickPayloads trims the sweep for smoke runs.
var StreamQuickPayloads = []int{1 << 20, 16 << 20}

// Stream measures staged vs streamed segment transfer for each payload.
// Iterations shrink as payloads grow so the big points stay affordable.
func Stream(payloads []int, iters int) []StreamPoint {
	var out []StreamPoint
	for _, bytes := range payloads {
		it := iters
		if bytes >= 64<<20 && it > 3 {
			it = 3
		}
		if bytes >= 512<<20 {
			it = 1
		}
		out = append(out,
			StreamMeasure(bytes, -1, it),
			StreamMeasure(bytes, core.DefaultStreamChunk, it))
	}
	return out
}

// StreamMeasure runs one configuration: payloadBytes of doubles shipped out
// and back per invocation with the given chunk pin on both senders (< 0
// staged, 0 auto, > 0 pinned bytes), averaged over iters invocations after
// one warm-up. The CI stream gate calls this directly.
func StreamMeasure(payloadBytes, chunkBytes, iters int) StreamPoint {
	res := scaleTime(payloadBytes/8, iters, scaleConfig{servers: 4, chunk: chunkBytes})
	mode := "streamed"
	chunk := chunkBytes
	if chunkBytes < 0 {
		mode, chunk = "staged", 0
	}
	return StreamPoint{
		Mode:         mode,
		PayloadBytes: payloadBytes,
		ChunkBytes:   chunk,
		Seconds:      res.sec,
		MBPerSec:     2 * float64(payloadBytes) / res.sec / (1 << 20),
		PeakBuffer:   res.peak,
		ChunkFrames:  res.frames / uint64(iters),
	}
}

// StreamMinLatency times probes single invocations of a round trip moving
// payloadBytes of doubles each way under the given chunk pin, and returns
// the fastest one in seconds. Per-invocation minima are the de-noiser the
// CI throughput gate needs: poll-loop wakeups on a loaded host make
// individual round trips bimodal, which averaging mixes in but a minimum
// over enough probes reliably strips away.
func StreamMinLatency(payloadBytes, chunkBytes, probes int) float64 {
	return scaleTime(payloadBytes/8, probes, scaleConfig{servers: 4, chunk: chunkBytes}).best
}
