package pgiop

import "testing"

// FuzzDecodeFrame runs every decoder over arbitrary bytes. Each must return
// an error or a value — never panic — and a frame may decode only as the
// message type PeekType names. The seed corpus in testdata/fuzz holds one
// frame of each message type plus a truncated and a wrong-version frame, so
// a plain `go test` replays it.
func FuzzDecodeFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte) {
		typ, peekErr := PeekType(frame)
		decoders := []struct {
			typ MsgType
			dec func([]byte) (bool, error)
		}{
			{MsgRequest, func(b []byte) (bool, error) { v, err := DecodeRequest(b); return v != nil, err }},
			{MsgReply, func(b []byte) (bool, error) { v, err := DecodeReply(b); return v != nil, err }},
			{MsgArgStream, func(b []byte) (bool, error) { v, err := DecodeArgStream(b); return v != nil, err }},
			{MsgLocateRequest, func(b []byte) (bool, error) { v, err := DecodeLocateRequest(b); return v != nil, err }},
			{MsgLocateReply, func(b []byte) (bool, error) { v, err := DecodeLocateReply(b); return v != nil, err }},
			{MsgCancelRequest, func(b []byte) (bool, error) { v, err := DecodeCancelRequest(b); return v != nil, err }},
			{MsgShutdown, func(b []byte) (bool, error) { v, err := DecodeShutdown(b); return v != nil, err }},
			{MsgFault, func(b []byte) (bool, error) { v, err := DecodeFaultNotice(b); return v != nil, err }},
		}
		for _, d := range decoders {
			ok, err := d.dec(frame)
			if err != nil {
				continue
			}
			if !ok {
				t.Fatalf("type %d decoder returned neither a value nor an error", d.typ)
			}
			if peekErr != nil || typ != d.typ {
				t.Fatalf("type %d decoder accepted a frame PeekType classifies as %d (%v)", d.typ, typ, peekErr)
			}
		}
	})
}
