package poa_test

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"pardis/internal/core"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/nexus"
	"pardis/internal/poa"
	"pardis/internal/rts"
)

// TestFullyDistributedTCPStack is the capstone integration: an SPMD server
// whose computing threads use the TCP run-time system (distinct address
// spaces) AND whose ORB endpoints are TCP, driven by a TCP SPMD client —
// every byte of the system crosses a socket.
func TestFullyDistributedTCPStack(t *testing.T) {
	if testing.Short() {
		t.Skip("full TCP stack; skipped with -short")
	}
	const S, C, N = 3, 2, 5000
	serverCoord, clientCoord := freeLocalAddr(t), freeLocalAddr(t)
	iorCh := make(chan core.IOR, 1)
	var wg sync.WaitGroup

	// --- Server program: S ranks over TCP RTS + TCP pgiop endpoints. ----
	for r := 0; r < S; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			th, err := rts.JoinTCP("server-host", rank, S, serverCoord, 10*time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer th.Close()
			ep, err := nexus.NewTCPEndpoint("")
			if err != nil {
				t.Error(err)
				return
			}
			adapter := poa.New(th, core.NewRouter(ep), nil)
			adapter.PollInterval = 100e-6
			ior, err := adapter.RegisterSPMD("tcp-scaler", scaleIface(), scaleServant{})
			if err != nil {
				t.Error(err)
				return
			}
			if rank == 0 {
				iorCh <- ior
			}
			adapter.ImplIsReady()
		}(r)
	}
	// A server rank that fails to start reports its error and exits; fail
	// then rather than wait forever for an IOR that never comes.
	var ior core.IOR
	select {
	case ior = <-iorCh:
	case <-time.After(30 * time.Second):
		t.Fatal("server rank 0 never published its IOR")
	}

	// --- Client program: C ranks over TCP RTS + TCP pgiop endpoints. ----
	var cwg sync.WaitGroup
	for r := 0; r < C; r++ {
		cwg.Add(1)
		go func(rank int) {
			defer cwg.Done()
			th, err := rts.JoinTCP("client-host", rank, C, clientCoord, 10*time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer th.Close()
			ep, err := nexus.NewTCPEndpoint("")
			if err != nil {
				t.Error(err)
				return
			}
			orb := core.NewORB(core.NewRouter(ep), th, nil)
			b, err := orb.SPMDBind(ior, scaleIface())
			if err != nil {
				t.Error(err)
				return
			}
			x := dseq.New[float64](th, N, dist.BlockTemplate(), dseq.Float64Codec{})
			for i := range x.Local() {
				x.Local()[i] = float64(x.DLayout().GlobalIndex(th.Rank(), i))
			}
			y := dseq.New[float64](th, 0, dist.BlockTemplate(), dseq.Float64Codec{})
			vals, err := b.Invoke("scale", []any{2.0, x, y})
			if err != nil {
				t.Error(err)
				return
			}
			wantSum := float64(N*(N-1)) / 2
			if vals[0] != wantSum {
				t.Errorf("rank %d: sum = %v, want %v", rank, vals[0], wantSum)
			}
			yd := dseq.AsFloat64(vals[1].(dseq.Distributed))
			for i, v := range yd.Local() {
				g := yd.DLayout().GlobalIndex(th.Rank(), i)
				if v != 2*float64(g) {
					t.Errorf("rank %d: y[%d] = %v", rank, g, v)
					break
				}
			}
			th.Barrier()
			if rank == 0 {
				if err := b.Shutdown(fmt.Sprintf("done after %d elements", N)); err != nil {
					t.Error(err)
				}
			}
		}(r)
	}
	cwg.Wait()
	wg.Wait()
}

// freeLocalAddr returns a localhost address whose port the kernel has just
// handed out and released, for a JoinTCP coordinator. A fixed port would
// sit in the ephemeral range and could be taken by an outbound socket of a
// test running in parallel.
func freeLocalAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}
