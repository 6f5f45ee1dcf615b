package dbnet

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/minidb"
	"repro/internal/overload"
	"repro/internal/schema"
)

// Fuzz targets for the wire decode paths — the exact bytes a hostile or
// damaged peer can put on the dbnet socket. The invariant is never
// "decodes successfully"; it is "never panics, never over-allocates off a
// lying length prefix, and every request that parses gets exactly one
// well-formed response frame".

// FuzzReadFrame feeds raw socket bytes to the framing layer: malformed
// length prefixes, truncated frames, frames that lie about their size.
func FuzzReadFrame(f *testing.F) {
	frame := func(payload []byte) []byte {
		var b bytes.Buffer
		writeFrame(&b, payload)
		return b.Bytes()
	}
	f.Add(frame([]byte{opPing}))
	f.Add(frame(nil))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})          // 4 GiB length prefix
	f.Add([]byte{0x10, 0x00, 0x00, 0x00, opQuery}) // truncated: promises 16, delivers 1
	f.Add([]byte{0x01, 0x00})                      // truncated header
	f.Add(frame([]byte{opDeadline, 0x80}))         // unterminated budget uvarint
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := readFrame(bytes.NewReader(data), 1<<16)
		if err != nil {
			return
		}
		if len(payload) > 1<<16 {
			t.Fatalf("frame exceeded max: %d bytes", len(payload))
		}
		// A well-framed payload must survive re-framing byte-identically.
		var b bytes.Buffer
		writeFrame(&b, payload)
		re, err := readFrame(&b, 1<<16)
		if err != nil || !bytes.Equal(re, payload) {
			t.Fatalf("re-framing not canonical: %v", err)
		}
	})
}

// FuzzDispatch drives arbitrary request payloads (opcode + body, including
// the opDeadline envelope) through the server's dispatcher against a real
// in-memory engine. Every input must produce exactly one response frame
// whose status byte is known, without panicking and without opening a
// transaction the response doesn't admit to.
func FuzzDispatch(f *testing.F) {
	valid := func(op byte, enc func(*bytes.Buffer)) []byte {
		var b bytes.Buffer
		b.WriteByte(op)
		if enc != nil {
			enc(&b)
		}
		return b.Bytes()
	}
	f.Add(valid(opPing, nil))
	f.Add(valid(opQuery, func(b *bytes.Buffer) {
		minidb.WirePutQuery(b, minidb.Query{Table: "hle"})
	}))
	f.Add(valid(opTableEpoch, func(b *bytes.Buffer) { minidb.WirePutString(b, "hle") }))
	f.Add(valid(opDeadline, func(b *bytes.Buffer) {
		minidb.WirePutUvarint(b, 50)
		b.WriteByte(opPing)
	}))
	f.Add(valid(opDeadline, func(b *bytes.Buffer) {
		minidb.WirePutUvarint(b, 1<<40) // absurd budget: must clamp, not overflow
		b.WriteByte(opQuery)
	}))
	f.Add([]byte{opExecBatch, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}) // lying op count
	f.Add([]byte{0x00})                                      // opcode 0: unknown
	f.Add([]byte{opDeadline})                                // empty envelope

	db, err := minidb.Open("", schema.AllSchemas()...)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { db.Close() })
	srv := &Server{opts: Options{MaxFrame: DefaultMaxFrame}, db: db, station: newSerialStation(0)}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		resp, tx := srv.dispatch(data[0], bytes.NewReader(data[1:]), nil, time.Time{})
		defer putFrameBuf(resp)
		if tx != nil {
			// A fuzzed frame may legitimately open a transaction (opBegin);
			// it must then be a healthy one we can roll back.
			tx.Rollback()
		}
		if resp.Len() == 0 {
			t.Fatal("empty response frame")
		}
		status := resp.Bytes()[0]
		if status != statusOK && status != statusErr && status != statusDeadline && status != statusOverload {
			t.Fatalf("unknown response status %d", status)
		}
		// The response must itself be frameable and parseable by the client.
		var b bytes.Buffer
		writeFrame(&b, resp.Bytes())
		payload, err := readFrame(&b, DefaultMaxFrame)
		if err != nil {
			t.Fatalf("response does not frame: %v", err)
		}
		if _, err := parseResponse(payload, time.Second); err != nil {
			if !IsRemote(err) && !IsDeadline(err) && !overload.IsOverload(err) {
				t.Fatalf("client cannot parse server response: %v", err)
			}
		}
	})
}

// FuzzParseResponse feeds raw response frames to the client-side parser
// — status bytes a hostile or damaged server could send, with the new
// statusOverload retry-after body front and center. The parser must
// never panic; every overload status must either produce a typed
// *overload.Error with a sane retry-after or a decode error, never a
// silent success and never an unbounded hint.
func FuzzParseResponse(f *testing.F) {
	resp := func(status byte, body func(*bytes.Buffer)) []byte {
		var b bytes.Buffer
		b.WriteByte(status)
		if body != nil {
			body(&b)
		}
		return b.Bytes()
	}
	f.Add(resp(statusOK, nil))
	f.Add(resp(statusErr, func(b *bytes.Buffer) { minidb.WirePutString(b, "no such table") }))
	f.Add(resp(statusDeadline, nil))
	f.Add(overloadFrame(250 * time.Millisecond).Bytes())
	f.Add(overloadFrame(0).Bytes())                    // hint floor: encodes as 1ms
	f.Add(resp(statusOverload, nil))                   // missing retry-after body
	f.Add(resp(statusOverload, func(b *bytes.Buffer) { // absurd hint: must clamp
		minidb.WirePutUvarint(b, 1<<50)
	}))
	f.Add(resp(statusOverload, func(b *bytes.Buffer) { b.WriteByte(0x80) })) // unterminated uvarint
	f.Add([]byte{})                                                          // empty response
	f.Add([]byte{0xFF})                                                      // unknown status
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := parseResponse(data, time.Second)
		if err == nil {
			if len(data) == 0 || data[0] != statusOK {
				t.Fatalf("non-OK response %v parsed without error", data)
			}
			_ = r
			return
		}
		if overload.IsOverload(err) {
			if len(data) == 0 || data[0] != statusOverload {
				t.Fatalf("overload error from status %v", data[0])
			}
			ra, ok := overload.RetryAfterOf(err)
			if !ok || ra <= 0 || ra > time.Hour {
				t.Fatalf("overload retry-after out of bounds: %v", ra)
			}
		}
	})
}
