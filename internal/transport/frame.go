package transport

// Wire format: a negotiated, stream-multiplexed framing (version 2).
//
// A connection opens with a 4-byte client preamble — the 3-byte magic
// "GD\xF2" followed by the highest version the client speaks — answered
// by a server accept of the same shape carrying the agreed version
// (never above the proposal). This build speaks only v2: its server
// drops a peer that proposes less, and its client treats an accept below
// v2 as a permanent version mismatch. The preamble stays so that a later
// version can still be negotiated. After agreement, every frame is
//
//	uint32 length | type byte | flags byte | uint32 streamID | payload
//
// where length covers everything after itself. Requests and responses
// from many concurrent calls interleave on one connection, matched by
// stream ID; responses may arrive in any order. The flags byte is a bit
// set: bit 0x01 marks a trace-context extension (17 bytes — trace ID,
// parent span ID, trace flags) between the frame header and the
// payload; all other bits are reserved and must be zero.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"globedoc/internal/telemetry"
)

// V2 is the protocol version this build speaks: the negotiated preamble
// followed by stream-multiplexed frames.
const V2 byte = 2

// versionLabel is V2 as a transport_negotiations_total label.
const versionLabel = "v2"

// Protocol-violation errors. ErrProtocol marks malformed traffic (a peer
// breaking framing rules); ErrVersionMismatch means negotiation
// concluded the peer cannot speak v2.
var (
	ErrProtocol        = errors.New("transport: protocol violation")
	ErrVersionMismatch = errors.New("transport: peer cannot speak required protocol version")
)

// preambleLen is the size of both the client preamble and the server
// accept: 3 magic bytes plus a version byte.
const preambleLen = 4

var preambleMagic = [3]byte{'G', 'D', 0xF2}

// clientPreamble encodes the version-negotiation opener proposing
// version v. The server accept has the same layout, so it doubles as
// the accept encoder.
func clientPreamble(v byte) []byte {
	return []byte{preambleMagic[0], preambleMagic[1], preambleMagic[2], v}
}

// parsePreamble reports whether b is a well-formed negotiation preamble
// (or accept) and extracts its version byte. A version of zero is not a
// valid proposal.
func parsePreamble(b []byte) (version byte, ok bool) {
	if len(b) != preambleLen {
		return 0, false
	}
	if b[0] != preambleMagic[0] || b[1] != preambleMagic[1] || b[2] != preambleMagic[2] {
		return 0, false
	}
	if b[3] == 0 {
		return 0, false
	}
	return b[3], true
}

// agree is the server's half of negotiation: the version to accept for
// the client preamble b, or false when b is not a preamble proposing at
// least v2 and the peer must be dropped. A proposal above v2 (a later
// client) is answered with v2.
func agree(b []byte) (byte, bool) {
	v, ok := parsePreamble(b)
	if !ok || v < V2 {
		return 0, false
	}
	return V2, true
}

// parseAccept validates the server's answer to this build's v2
// proposal. A malformed accept, or one above the proposal, is a protocol
// violation; an accept below v2 is a permanent version mismatch — no
// redial can change the peer's answer.
func parseAccept(b []byte) error {
	v, ok := parsePreamble(b)
	switch {
	case !ok:
		return fmt.Errorf("%w: malformed negotiation accept % x", ErrProtocol, b)
	case v > V2:
		return fmt.Errorf("%w: server accepted version %d above proposal %d", ErrProtocol, v, V2)
	case v < V2:
		return Permanent(fmt.Errorf("%w: peer accepted v%d", ErrVersionMismatch, v))
	}
	return nil
}

// v2 frame types. Anything else is a protocol violation and drops the
// connection.
const (
	frameRequest  byte = 1
	frameResponse byte = 2
)

// v2FrameOverhead is the fixed header inside a v2 frame's length-
// delimited body: type, flags and stream ID.
const v2FrameOverhead = 6

// v2 frame flag bits. flagTrace marks the trace-context extension;
// every other bit is reserved and rejected.
const (
	flagTrace        byte = 0x01
	knownFlags            = flagTrace
	traceExtLen           = 17 // trace ID u64 | parent span ID u64 | trace flags byte
	traceFlagSampled      = 0x01
)

// v2Frame is one parsed multiplexed frame.
type v2Frame struct {
	Type     byte
	Flags    byte
	StreamID uint32
	Payload  []byte
	// Trace is the propagated span context when the frame carried the
	// flagTrace extension (requests only; the zero value means untraced).
	Trace telemetry.SpanContext
}

// appendTraceExt encodes sc as the 17-byte trace-context extension.
func appendTraceExt(buf []byte, sc telemetry.SpanContext) []byte {
	var ext [traceExtLen]byte
	binary.BigEndian.PutUint64(ext[0:8], sc.TraceID)
	binary.BigEndian.PutUint64(ext[8:16], sc.SpanID)
	if sc.Sampled {
		ext[16] = traceFlagSampled
	}
	return append(buf, ext[:]...)
}

// parseTraceExt decodes the 17-byte trace-context extension.
func parseTraceExt(ext []byte) telemetry.SpanContext {
	return telemetry.SpanContext{
		TraceID: binary.BigEndian.Uint64(ext[0:8]),
		SpanID:  binary.BigEndian.Uint64(ext[8:16]),
		Sampled: ext[16]&traceFlagSampled != 0,
	}
}

// writeV2Frame sends one v2 frame with a single Write call, so the
// network simulator charges one latency per frame. A valid f.Trace is
// written as the trace-context extension with flagTrace set.
func writeV2Frame(w io.Writer, f v2Frame) error {
	if len(f.Payload) > MaxFrame {
		return ErrFrameTooLarge
	}
	ext := 0
	if f.Trace.Valid() {
		f.Flags |= flagTrace
		ext = traceExtLen
	}
	buf := make([]byte, 0, 4+v2FrameOverhead+ext+len(f.Payload))
	buf = binary.BigEndian.AppendUint32(buf, uint32(v2FrameOverhead+ext+len(f.Payload)))
	buf = append(buf, f.Type, f.Flags)
	buf = binary.BigEndian.AppendUint32(buf, f.StreamID)
	if ext > 0 {
		buf = appendTraceExt(buf, f.Trace)
	}
	buf = append(buf, f.Payload...)
	_, err := w.Write(buf)
	return err
}

// readV2Frame receives and validates one v2 frame.
func readV2Frame(r io.Reader) (v2Frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return v2Frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame+v2FrameOverhead+traceExtLen {
		return v2Frame{}, ErrFrameTooLarge
	}
	if n < v2FrameOverhead {
		return v2Frame{}, fmt.Errorf("%w: v2 frame length %d below header size", ErrProtocol, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return v2Frame{}, err
	}
	return parseV2Frame(body)
}

// parseV2Frame decodes a frame body (everything after the length
// prefix), enforcing the framing invariants an untrusted peer might
// break: known type, known flag bits only, complete header, a
// complete, canonical trace extension when flagged (reserved trace
// flag bits must be zero), and a payload within MaxFrame after the
// extension is stripped — the readV2Frame length prefilter budgets for
// the extension whether or not the frame carries one, so the exact
// bound is enforced here. Together these make decode∘encode the
// identity on every accepted frame.
func parseV2Frame(body []byte) (v2Frame, error) {
	if len(body) < v2FrameOverhead {
		return v2Frame{}, fmt.Errorf("%w: truncated v2 frame header (%d bytes)", ErrProtocol, len(body))
	}
	f := v2Frame{
		Type:     body[0],
		Flags:    body[1],
		StreamID: binary.BigEndian.Uint32(body[2:6]),
		Payload:  body[6:],
	}
	if f.Type != frameRequest && f.Type != frameResponse {
		return v2Frame{}, fmt.Errorf("%w: unknown v2 frame type 0x%02x", ErrProtocol, f.Type)
	}
	if f.Flags&^knownFlags != 0 {
		return v2Frame{}, fmt.Errorf("%w: reserved v2 flag bits 0x%02x set", ErrProtocol, f.Flags&^knownFlags)
	}
	if f.Flags&flagTrace != 0 {
		if len(f.Payload) < traceExtLen {
			return v2Frame{}, fmt.Errorf("%w: truncated trace-context extension (%d bytes)", ErrProtocol, len(f.Payload))
		}
		if tf := f.Payload[traceExtLen-1]; tf&^traceFlagSampled != 0 {
			return v2Frame{}, fmt.Errorf("%w: reserved trace flag bits 0x%02x set", ErrProtocol, tf&^traceFlagSampled)
		}
		f.Trace = parseTraceExt(f.Payload[:traceExtLen])
		f.Payload = f.Payload[traceExtLen:]
		if !f.Trace.Valid() {
			return v2Frame{}, fmt.Errorf("%w: trace-context extension with zero trace or span ID", ErrProtocol)
		}
	}
	if len(f.Payload) > MaxFrame {
		return v2Frame{}, ErrFrameTooLarge
	}
	return f, nil
}
