package core

import (
	"strings"
	"testing"

	"pardis/internal/cdr"
	"pardis/internal/dist"
	"pardis/internal/dseq"
	"pardis/internal/nexus"
	"pardis/internal/pgiop"
	"pardis/internal/rts"
	"pardis/internal/typecode"
)

// TestHostileOutSegmentRejected is the client-side counterpart of the
// POA's hostile in-segment test: a forged out-direction ArgStream whose
// runs reach past the client's local storage, or total more elements than
// the server still owes, must fail the future with an error and write
// nothing of its payload into the holder.
func TestHostileOutSegmentRejected(t *testing.T) {
	const n = 10
	cases := []struct {
		name string
		// valid is a well-formed first segment of the owed share.
		valid []pgiop.Run
		bad   []pgiop.Run
		want  string
	}{
		{"past-storage", nil, []pgiop.Run{{Global: 0, Len: 2 * n, DstOff: 0}}, "exceeds local storage"},
		{"past-owed", []pgiop.Run{{Global: 0, Len: 6, DstOff: 0}},
			[]pgiop.Run{{Global: 6, Len: 6, DstOff: 4}}, "exceeds the 4 still expected"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fab := nexus.NewInproc()
			srv := fab.NewEndpoint("evil-srv")
			th := rts.NewChanGroup("cli", 1).Thread(0)
			orb := NewORB(NewRouter(fab.NewEndpoint("cli")), th, nil)
			dv := typecode.DSequenceOf(typecode.TCDouble, 0, "BLOCK", "BLOCK")
			iface := &InterfaceDef{Name: "src", Ops: []Operation{{
				Name:   "get",
				Params: []Param{NewParam("y", Out, dv)},
			}}}
			ior := IOR{Interface: "src", Key: "k", SPMD: true, ServerSize: 1, Addrs: []string{string(srv.Addr())}}
			b, err := orb.SPMDBind(ior, iface)
			if err != nil {
				t.Fatal(err)
			}
			y := dseq.New[float64](th, 0, dist.BlockTemplate(), dseq.Float64Codec{})
			cell, err := b.InvokeNB("get", []any{y})
			if err != nil {
				t.Fatal(err)
			}

			fr, err := srv.Recv()
			if err != nil {
				t.Fatal(err)
			}
			req, err := pgiop.DecodeRequest(fr.Data)
			if err != nil {
				t.Fatal(err)
			}
			send := func(frame []byte) {
				if err := srv.Send(nexus.Addr(req.ReplyAddr), frame); err != nil {
					t.Fatal(err)
				}
			}
			segment := func(runs []pgiop.Run, fill float64) []byte {
				total := 0
				for _, r := range runs {
					total += int(r.Len)
				}
				src := dseq.New[float64](th, total, dist.BlockTemplate(), dseq.Float64Codec{})
				for i := range src.Local() {
					src.Local()[i] = fill
				}
				enc := cdr.NewEncoder(8 * total)
				src.EncodeRuns(enc, []dist.Run{{Len: total}})
				return pgiop.EncodeArgStream(&pgiop.ArgStream{
					BindingID: req.BindingID, SeqNo: req.SeqNo, ReqID: req.ReqID,
					Param: 0, Dir: pgiop.DirOut, Runs: runs, Payload: enc.Bytes(),
				})
			}
			send(pgiop.EncodeReply(&pgiop.Reply{
				ReqID: req.ReqID, Status: pgiop.StatusOK,
				OutLens: []pgiop.OutLen{{Param: 0, N: n, Layout: dist.BlockTemplate().Layout(n, 1)}},
			}))
			if tc.valid != nil {
				send(segment(tc.valid, 1))
			}
			send(segment(tc.bad, 99))

			if !cell.WaitTimeout(10) {
				t.Fatal("future never resolved")
			}
			err = cell.Wait()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("future resolved with %v, want an error containing %q", err, tc.want)
			}
			if got := len(y.Local()); got != n {
				t.Fatalf("holder holds %d elements, want its share of %d", got, n)
			}
			for i, v := range y.Local() {
				if v == 99 {
					t.Fatalf("element %d written by the rejected segment", i)
				}
			}
		})
	}
}
