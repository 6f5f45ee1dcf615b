// Package dbnet serves a minidb database over TCP so that N middle-tier
// replicas can share one metadata DBMS. HEDC's middle tier "scales by
// replication" while the database tier stays singular (Figure 5); this
// package is that singular tier's network face. The protocol is
// deliberately small: length-prefixed binary frames carrying the same
// structured queries, rows, and values the engine already encodes in its
// WAL — no SQL text, no generic serialization layer.
//
// Framing: every message is a 4-byte little-endian payload length
// followed by the payload. Requests are [opcode][body]; responses are
// [status][body] where status 0 is success and 1 carries an error
// string. Each connection is synchronous — one request, one response —
// which keeps interactive transactions trivial: a connection that issued
// Begin simply routes subsequent operations through its transaction.
package dbnet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Request opcodes.
const (
	opQuery byte = iota + 1
	opGet
	opInsert
	opUpdate
	opDelete
	opTableNames
	opTableLen
	opTableEpoch
	opSchema
	opStats
	opCreateView
	opViewCount
	opBegin
	opCommit
	opRollback
	opPing
	// 17 carried the retired one-table insert batch. It stays reserved,
	// so a peer that still sends it gets the unknown-opcode reply and the
	// opcodes after it keep their bytes.
	_
	// opExecBatch ships a full minidb.Batch (mixed tables and op kinds).
	// It commits atomically via the engine's group-commit path and is
	// charged as ONE operation against the capacity station: the round
	// trip is what a real DBMS charges for a bulk statement, and
	// amortizing it is the point.
	opExecBatch
	// opDeadline is an envelope, not an operation: [uvarint budgetMillis]
	// followed by a complete inner request. It propagates the client's
	// remaining deadline so the server can refuse work the client will
	// never collect — when the capacity station's queue alone would blow
	// the budget, the server answers statusDeadline immediately instead
	// of servicing a request whose caller has already timed out.
	opDeadline
	// opAnalytics ships a colseg aggregate query (scan→filter→aggregate)
	// to the node that holds the columnar segments. Body: an encoded
	// colseg.Query; response: an encoded colseg.Result. One wire round
	// trip replaces shipping millions of rows to the client.
	opAnalytics
)

// Response status bytes.
const (
	statusOK  byte = 0
	statusErr byte = 1
	// statusDeadline: the server refused service because the request's
	// propagated deadline would have expired before its reply departed.
	// No capacity was consumed and the connection remains healthy.
	statusDeadline byte = 2
	// statusOverload: the server refused service because the capacity
	// station's projected queue delay exceeded its configured bound —
	// the request was doomed to wait, so it is turned away at the socket
	// with a hint. Body: [uvarint retryAfterMillis], the projected delay
	// until the backlog the request saw has drained. No capacity was
	// consumed and the connection remains healthy.
	statusOverload byte = 3
)

// DefaultMaxFrame bounds a single frame; metadata rows are small, so
// anything larger is a corrupt or hostile peer.
const DefaultMaxFrame = 16 << 20

// frameBufs pools the scratch buffers both sides encode frames into —
// request bodies on the client, response bodies on the server. Ingest
// pushes thousands of frames per second through these paths; pooling keeps
// the encode cost at zero steady-state allocations.
var frameBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getFrameBuf() *bytes.Buffer {
	b := frameBufs.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func putFrameBuf(b *bytes.Buffer) {
	if b.Cap() > 1<<20 {
		return // don't let one giant frame pin memory in the pool
	}
	frameBufs.Put(b)
}

// writeFrame writes one length-prefixed frame.
func writeFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// writeFrameEnv writes one length-prefixed frame whose payload is the
// concatenation env+payload — the deadline envelope prepended without
// copying the request body.
func writeFrameEnv(w io.Writer, env, payload []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(env)+len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(env); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one length-prefixed frame of at most max bytes.
func readFrame(r io.Reader, max int) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if int(n) > max {
		return nil, fmt.Errorf("dbnet: frame of %d bytes exceeds limit %d", n, max)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}
