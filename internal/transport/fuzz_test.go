package transport

// Fuzz targets for the wire surface an untrusted peer controls: the
// multiplexed frame decoder and both halves of version negotiation.
// Both are driven from raw bytes exactly as they arrive off a
// connection; the properties checked are memory-safety (no panics, no
// unbounded allocation) and encode/decode round-trip consistency.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"globedoc/internal/telemetry"
)

func FuzzFrameDecode(f *testing.F) {
	// Well-formed request and response frames, and the classic traps:
	// truncated header, unknown type, reserved flags, huge length.
	ok := func(t byte, id uint32, payload []byte) []byte {
		var buf bytes.Buffer
		if err := writeV2Frame(&buf, v2Frame{Type: t, StreamID: id, Payload: payload}, nil); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	okTraced := func(t byte, id uint32, payload []byte, sc telemetry.SpanContext) []byte {
		var buf bytes.Buffer
		if err := writeV2Frame(&buf, v2Frame{Type: t, StreamID: id, Payload: payload, Trace: sc}, nil); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	// split sends an envelope head and its body as the two halves of one
	// frame, the way the server and the mux write them.
	split := func(t byte, id uint32, head, body []byte, sc telemetry.SpanContext) []byte {
		var buf bytes.Buffer
		if err := writeV2Frame(&buf, v2Frame{Type: t, StreamID: id, Payload: head, Trace: sc}, body); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(ok(frameRequest, 1, []byte("hello")))
	f.Add(ok(frameResponse, 0xFFFFFFFF, nil))
	f.Add(okTraced(frameRequest, 7, []byte("traced"), telemetry.SpanContext{TraceID: 42, SpanID: 43, Sampled: true}))
	f.Add(okTraced(frameRequest, 8, nil, telemetry.SpanContext{TraceID: 1, SpanID: 1}))
	elem := bytes.Repeat([]byte("element "), 40)
	f.Add(split(frameRequest, 2, appendRequestHead(nil, "obj.getelement", 5), []byte("index"), telemetry.SpanContext{}))
	f.Add(split(frameResponse, 2, appendResponseHead(nil, len(elem), nil), elem, telemetry.SpanContext{}))
	f.Add(split(frameResponse, 3, appendResponseHead(nil, 0, errors.New("no such element")), nil, telemetry.SpanContext{}))
	f.Add(split(frameRequest, 9, appendRequestHead(nil, "obj.getcert", 3), []byte{1, 2, 3}, telemetry.SpanContext{TraceID: 5, SpanID: 6, Sampled: true}))
	f.Add([]byte{0, 0, 0, 3, 1, 0, 0})                                           // length below header size
	f.Add([]byte{0, 0, 0, 6, 9, 0, 0, 0, 0, 1})                                  // unknown frame type
	f.Add([]byte{0, 0, 0, 6, 1, 0x80, 0, 0, 0, 1})                               // reserved flags set
	f.Add([]byte{0, 0, 0, 6, 1, 0x03, 0, 0, 0, 1})                               // trace flag plus a reserved bit
	f.Add([]byte{0, 0, 0, 8, 1, 0x01, 0, 0, 0, 1, 0, 0})                         // trace flag with truncated extension
	f.Add(append([]byte{0, 0, 0, 23, 1, 0x01, 0, 0, 0, 1}, make([]byte, 17)...)) // trace extension with zero IDs
	f.Add(append([]byte{0, 0, 0, 23, 1, 0x01, 0, 0, 0, 1},
		[]byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0x30}...)) // reserved trace flag bits
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // absurd length prefix
	f.Add([]byte("GD\xF2\x02"))           // a preamble is not a frame
	// A v1 request frame (length | op | body): its envelope starts
	// where the v2 frame type belongs, so it is an unknown frame type.
	f.Add([]byte{0, 0, 0, 8, 4, 'e', 'c', 'h', 'o', 1, 'x', 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := readV2Frame(bytes.NewReader(data))
		if err != nil {
			// Every rejection must be a typed error, never a panic; the
			// only acceptable classes are framing violations, size bounds
			// and plain truncation.
			if !errors.Is(err, ErrProtocol) && !errors.Is(err, ErrFrameTooLarge) &&
				!errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("readV2Frame(%x) = unexpected error class %v", data, err)
			}
			return
		}
		// Decoded frames obey the invariants the mux relies on...
		if fr.Type != frameRequest && fr.Type != frameResponse {
			t.Fatalf("accepted frame with type 0x%02x", fr.Type)
		}
		if fr.Flags&^knownFlags != 0 {
			t.Fatalf("accepted frame with reserved flags 0x%02x", fr.Flags)
		}
		if fr.Flags&flagTrace != 0 && !fr.Trace.Valid() {
			t.Fatalf("accepted trace-flagged frame with invalid context %+v", fr.Trace)
		}
		if fr.Flags&flagTrace == 0 && fr.Trace.Valid() {
			t.Fatalf("unflagged frame decoded a trace context %+v", fr.Trace)
		}
		if len(fr.Payload) > MaxFrame {
			t.Fatalf("accepted %d-byte payload above MaxFrame", len(fr.Payload))
		}
		// ...and round-trip: re-encoding reproduces the consumed bytes.
		// Splitting the payload into a head and a body, as the senders
		// do, must not change a byte.
		consumed := 4 + binary.BigEndian.Uint32(data[:4])
		for _, cut := range []int{0, len(fr.Payload) / 2, len(fr.Payload)} {
			head := v2Frame{Type: fr.Type, Flags: fr.Flags, StreamID: fr.StreamID, Payload: fr.Payload[:cut], Trace: fr.Trace}
			var buf bytes.Buffer
			if err := writeV2Frame(&buf, head, fr.Payload[cut:]); err != nil {
				t.Fatalf("re-encoding accepted frame split at %d: %v", cut, err)
			}
			if !bytes.Equal(buf.Bytes(), data[:consumed]) {
				t.Fatalf("round-trip mismatch split at %d:\n in %x\nout %x", cut, data[:consumed], buf.Bytes())
			}
		}
	})
}

func FuzzVersionNegotiation(f *testing.F) {
	f.Add([]byte("GD\xF2\x01")) // a v1 proposal: dropped; as an accept, a mismatch
	f.Add([]byte("GD\xF2\x02"))
	f.Add([]byte("GD\xF2\x00")) // version zero is not negotiable
	f.Add([]byte("GD\xF3\x02")) // wrong magic
	f.Add([]byte("GET "))       // an HTTP client, say
	f.Add([]byte{})
	f.Add([]byte("GD\xF2\x7F")) // a later client's proposal; as an accept, above ours
	f.Add([]byte{0, 0, 0, 9})   // a v1 length header where the preamble belongs

	f.Fuzz(func(t *testing.T, raw []byte) {
		v, ok := parsePreamble(raw)
		if ok {
			if len(raw) != preambleLen || raw[0] != preambleMagic[0] || raw[1] != preambleMagic[1] || raw[2] != preambleMagic[2] {
				t.Fatalf("parsePreamble accepted non-preamble bytes %x", raw)
			}
			if v == 0 {
				t.Fatalf("parsePreamble accepted invalid version %d", v)
			}
			// Round-trip: re-encoding the parsed version reproduces raw.
			if !bytes.Equal(clientPreamble(v), raw) {
				t.Fatalf("preamble round-trip mismatch: %x -> v%d -> %x", raw, v, clientPreamble(v))
			}
		}
		// Server half: only a preamble proposing at least v2 is answered,
		// always with v2, and that answer satisfies our own client.
		agreed, served := agree(raw)
		if served {
			if !ok || v < V2 || agreed != V2 {
				t.Fatalf("agree(%x) = v%d for a proposal it must drop", raw, agreed)
			}
			if err := parseAccept(clientPreamble(agreed)); err != nil {
				t.Fatalf("client rejects the server's own accept v%d: %v", agreed, err)
			}
		} else if ok && v >= V2 {
			t.Fatalf("agree dropped a well-formed v%d proposal", v)
		}
		// Client half: only an exact v2 accept completes negotiation.
		switch err := parseAccept(raw); {
		case err == nil:
			if !ok || v != V2 {
				t.Fatalf("parseAccept accepted %x", raw)
			}
		case ok && v < V2:
			if !errors.Is(err, ErrVersionMismatch) || Retryable(err) {
				t.Fatalf("parseAccept(%x) = %v, want a permanent ErrVersionMismatch", raw, err)
			}
		case !errors.Is(err, ErrProtocol):
			t.Fatalf("parseAccept(%x) = unexpected error class %v", raw, err)
		}
	})
}
