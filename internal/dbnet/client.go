package dbnet

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/colseg"
	"repro/internal/minidb"
	"repro/internal/overload"
)

// ClientOptions configures a remote engine client.
type ClientOptions struct {
	// Addr is the dbnet server address.
	Addr string
	// PoolSize caps pooled idle connections (not concurrency — calls
	// beyond the pool dial fresh connections). Default 4.
	PoolSize int
	// DialTimeout bounds connection establishment. Default 2s.
	DialTimeout time.Duration
	// CallTimeout is the per-call deadline covering write+read of one
	// round trip. Default 15s — generous, because calls queue behind the
	// server's capacity station when the shared database saturates. The
	// budget also rides every request as an opDeadline envelope, so the
	// server refuses work it cannot answer in time instead of servicing
	// requests whose callers have already given up.
	CallTimeout time.Duration
	// MaxFrame bounds response frames. Default DefaultMaxFrame.
	MaxFrame int
	// Dial overrides connection establishment — the fault-injection seam.
	// Nil means net.DialTimeout.
	Dial func(network, addr string, timeout time.Duration) (net.Conn, error)
}

// Client is a remote minidb engine: the same Engine interface the DM
// programs against, backed by pooled connections to a dbnet server.
// Schemas are cached client-side (they are fixed at runtime); table
// epochs are never cached — they are what keeps every replica's query
// cache coherent.
type Client struct {
	opts ClientOptions

	mu     sync.Mutex
	idle   []*wireConn
	closed bool

	schemaMu sync.RWMutex
	schemas  map[string]*minidb.Schema
}

var _ minidb.Engine = (*Client)(nil)

// wireConn is one pooled connection.
type wireConn struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

// Dial connects to a dbnet server and verifies it with a ping.
func Dial(opts ClientOptions) (*Client, error) {
	if opts.PoolSize <= 0 {
		opts.PoolSize = 4
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 2 * time.Second
	}
	if opts.CallTimeout <= 0 {
		opts.CallTimeout = 15 * time.Second
	}
	if opts.MaxFrame <= 0 {
		opts.MaxFrame = DefaultMaxFrame
	}
	c := &Client{opts: opts, schemas: make(map[string]*minidb.Schema)}
	if err := c.Ping(); err != nil {
		return nil, fmt.Errorf("dbnet: dial %s: %w", opts.Addr, err)
	}
	return c, nil
}

func (c *Client) dial() (*wireConn, error) {
	dialer := c.opts.Dial
	if dialer == nil {
		dialer = net.DialTimeout
	}
	conn, err := dialer("tcp", c.opts.Addr, c.opts.DialTimeout)
	if err != nil {
		return nil, &UnavailableError{Addr: c.opts.Addr, Err: err}
	}
	return &wireConn{
		c:  conn,
		br: bufio.NewReader(conn),
		bw: bufio.NewWriter(conn),
	}, nil
}

// get leases a connection from the pool, dialing if none is idle.
func (c *Client) get() (*wireConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("dbnet: client closed")
	}
	if n := len(c.idle); n > 0 {
		wc := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return wc, nil
	}
	c.mu.Unlock()
	return c.dial()
}

// put returns a healthy connection to the pool.
func (c *Client) put(wc *wireConn) {
	c.mu.Lock()
	if !c.closed && len(c.idle) < c.opts.PoolSize {
		c.idle = append(c.idle, wc)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	wc.c.Close()
}

// Close closes every idle connection and refuses further calls.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	for _, wc := range c.idle {
		wc.c.Close()
	}
	c.idle = nil
	return nil
}

// roundTrip performs one request/response on a connection under the
// per-call deadline.
func (wc *wireConn) roundTrip(req []byte, deadline time.Duration, maxFrame int) ([]byte, error) {
	wc.c.SetDeadline(time.Now().Add(deadline))
	if err := writeFrame(wc.bw, req); err != nil {
		return nil, err
	}
	if err := wc.bw.Flush(); err != nil {
		return nil, err
	}
	return readFrame(wc.br, maxFrame)
}

// remoteError is an error the server reported: the request was
// delivered and rejected, as opposed to a transport failure.
type remoteError struct{ msg string }

func (e *remoteError) Error() string { return e.msg }

// IsRemote reports whether err is an application-level error from the
// server rather than a transport failure. Callers use this to decide
// whether a retry elsewhere is safe.
func IsRemote(err error) bool {
	var re *remoteError
	return errors.As(err, &re)
}

// parseResponse splits a response frame into payload or server error.
// budget is the deadline budget the request carried, echoed into
// DeadlineError for diagnostics.
func parseResponse(resp []byte, budget time.Duration) (*bytes.Reader, error) {
	if len(resp) == 0 {
		return nil, fmt.Errorf("dbnet: empty response")
	}
	r := bytes.NewReader(resp[1:])
	switch resp[0] {
	case statusOK:
		return r, nil
	case statusErr:
		msg, err := minidb.WireString(r)
		if err != nil {
			return nil, fmt.Errorf("dbnet: mangled error response: %w", err)
		}
		return nil, &remoteError{msg: msg}
	case statusDeadline:
		return nil, &DeadlineError{Budget: budget}
	case statusOverload:
		ms, err := minidb.WireUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("dbnet: mangled overload response: %w", err)
		}
		// A hint is always positive, mirroring overloadFrame's floor on
		// the encoding side: "retry after 0" would read as "no hint".
		if ms == 0 {
			ms = 1
		}
		if ms > uint64(time.Hour/time.Millisecond) {
			ms = uint64(time.Hour / time.Millisecond)
		}
		return nil, &overload.Error{
			Tier:       "db",
			RetryAfter: time.Duration(ms) * time.Millisecond,
		}
	default:
		return nil, fmt.Errorf("dbnet: unknown response status %d", resp[0])
	}
}

// beginDeadlineEnv starts a request buffer with the opDeadline envelope
// carrying the call's budget in milliseconds; the inner request follows.
func beginDeadlineEnv(b *bytes.Buffer, budget time.Duration) {
	b.WriteByte(opDeadline)
	ms := uint64(budget / time.Millisecond)
	if ms == 0 {
		ms = 1
	}
	minidb.WirePutUvarint(b, ms)
}

// call runs one pooled request: encode (into a pooled buffer), round-trip,
// decode. Transport errors discard the connection; server errors recycle it.
func (c *Client) call(op byte, enc func(*bytes.Buffer), dec func(*bytes.Reader) error) error {
	req := getFrameBuf()
	defer putFrameBuf(req)
	beginDeadlineEnv(req, c.opts.CallTimeout)
	req.WriteByte(op)
	if enc != nil {
		enc(req)
	}
	wc, err := c.get()
	if err != nil {
		return err
	}
	resp, err := wc.roundTrip(req.Bytes(), c.opts.CallTimeout, c.opts.MaxFrame)
	if err != nil {
		wc.c.Close()
		return &UnavailableError{Addr: c.opts.Addr, Err: err}
	}
	r, err := parseResponse(resp, c.opts.CallTimeout)
	if err != nil {
		if IsRemote(err) || IsDeadline(err) || overload.IsOverload(err) {
			c.put(wc) // the connection itself is fine
		} else {
			wc.c.Close()
		}
		return err
	}
	if dec != nil {
		if err := dec(r); err != nil {
			wc.c.Close()
			return fmt.Errorf("dbnet: decode response: %w", err)
		}
	}
	c.put(wc)
	return nil
}

// Ping round-trips a no-op; the cluster health checker calls this.
func (c *Client) Ping() error { return c.call(opPing, nil, nil) }

// Query runs a structured query on the remote engine.
func (c *Client) Query(q minidb.Query) (*minidb.Result, error) {
	var res *minidb.Result
	err := c.call(opQuery,
		func(b *bytes.Buffer) { minidb.WirePutQuery(b, q) },
		func(r *bytes.Reader) (e error) { res, e = minidb.WireResult(r); return })
	return res, err
}

// Get fetches one row by rowid.
func (c *Client) Get(table string, rowid int64) (minidb.Row, error) {
	var row minidb.Row
	err := c.call(opGet,
		func(b *bytes.Buffer) {
			minidb.WirePutString(b, table)
			minidb.WirePutVarint(b, rowid)
		},
		func(r *bytes.Reader) (e error) { row, e = minidb.WireRow(r); return })
	return row, err
}

// Insert runs a single-statement insert.
func (c *Client) Insert(table string, row minidb.Row) (int64, error) {
	var id int64
	err := c.call(opInsert,
		func(b *bytes.Buffer) {
			minidb.WirePutString(b, table)
			minidb.WirePutRow(b, row)
		},
		func(r *bytes.Reader) (e error) { id, e = minidb.WireVarint(r); return })
	return id, err
}

// Update runs a single-statement update.
func (c *Client) Update(table string, rowid int64, row minidb.Row) error {
	return c.call(opUpdate, func(b *bytes.Buffer) {
		minidb.WirePutString(b, table)
		minidb.WirePutVarint(b, rowid)
		minidb.WirePutRow(b, row)
	}, nil)
}

// Delete runs a single-statement delete.
func (c *Client) Delete(table string, rowid int64) error {
	return c.call(opDelete, func(b *bytes.Buffer) {
		minidb.WirePutString(b, table)
		minidb.WirePutVarint(b, rowid)
	}, nil)
}

// Apply ships a whole mutation batch as ONE wire round trip; the server
// commits it atomically through the engine's group-commit path and returns
// the insert rowids in order. This is the bulk-ingest workhorse: where the
// serial loader pays ~30 round trips per telemetry unit, the batched one
// pays ~3.
func (c *Client) Apply(b *minidb.Batch) ([]int64, error) {
	if b == nil || b.Len() == 0 {
		return nil, nil
	}
	var ids []int64
	err := c.call(opExecBatch,
		func(buf *bytes.Buffer) { minidb.WirePutBatch(buf, b) },
		func(r *bytes.Reader) (e error) { ids, e = wireRowIDs(r); return })
	return ids, err
}

// InsertBatch inserts many rows into one table in one round trip and one
// remote transaction, returning their rowids.
func (c *Client) InsertBatch(table string, rows []minidb.Row) ([]int64, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	var ids []int64
	err := c.call(opInsertBatch,
		func(b *bytes.Buffer) {
			minidb.WirePutString(b, table)
			minidb.WirePutUvarint(b, uint64(len(rows)))
			for _, row := range rows {
				minidb.WirePutRow(b, row)
			}
		},
		func(r *bytes.Reader) (e error) { ids, e = wireRowIDs(r); return })
	return ids, err
}

// TableNames lists the remote tables.
func (c *Client) TableNames() []string {
	var names []string
	err := c.call(opTableNames, nil, func(r *bytes.Reader) error {
		n, err := minidb.WireUvarint(r)
		if err != nil {
			return err
		}
		names = make([]string, 0, n)
		for i := uint64(0); i < n; i++ {
			s, err := minidb.WireString(r)
			if err != nil {
				return err
			}
			names = append(names, s)
		}
		return nil
	})
	if err != nil {
		return nil
	}
	return names
}

// TableLen returns the remote table's live row count (-1 on failure or
// unknown table, matching the local engine's unknown-table convention).
func (c *Client) TableLen(name string) int {
	n := int64(-1)
	err := c.call(opTableLen,
		func(b *bytes.Buffer) { minidb.WirePutString(b, name) },
		func(r *bytes.Reader) (e error) { n, e = minidb.WireVarint(r); return })
	if err != nil {
		return -1
	}
	return int(n)
}

// TableEpoch returns the remote table's commit epoch. Always a fresh
// round trip: a stale epoch could validate a stale cache entry. Returns
// 0 on transport failure, which no live table ever reports (epochs start
// at 1), so failed reads can never validate a cache hit.
func (c *Client) TableEpoch(name string) uint64 {
	var epoch uint64
	err := c.call(opTableEpoch,
		func(b *bytes.Buffer) { minidb.WirePutString(b, name) },
		func(r *bytes.Reader) (e error) { epoch, e = minidb.WireUvarint(r); return })
	if err != nil {
		return 0
	}
	return epoch
}

// Schema returns the remote table's schema, cached after first fetch —
// schemas are fixed while the system runs, so this is safe and saves a
// round trip on every DM query plan.
func (c *Client) Schema(name string) *minidb.Schema {
	c.schemaMu.RLock()
	s, ok := c.schemas[name]
	c.schemaMu.RUnlock()
	if ok {
		return s
	}
	err := c.call(opSchema,
		func(b *bytes.Buffer) { minidb.WirePutString(b, name) },
		func(r *bytes.Reader) (e error) { s, e = minidb.WireSchema(r); return })
	if err != nil {
		return nil
	}
	if s != nil {
		c.schemaMu.Lock()
		c.schemas[name] = s
		c.schemaMu.Unlock()
	}
	return s
}

// Stats returns the remote engine's counters (zero value on failure).
func (c *Client) Stats() minidb.StatsSnapshot {
	var st minidb.StatsSnapshot
	c.call(opStats, nil,
		func(r *bytes.Reader) (e error) { st, e = minidb.WireStats(r); return })
	return st
}

// CreateCountView registers a count view on the remote engine.
// Identical re-registration is a no-op server-side, so every replica
// may call it.
func (c *Client) CreateCountView(name, table, groupBy string) error {
	return c.call(opCreateView, func(b *bytes.Buffer) {
		minidb.WirePutString(b, name)
		minidb.WirePutString(b, table)
		minidb.WirePutString(b, groupBy)
	}, nil)
}

// ViewCount returns one group's count from a remote count view.
func (c *Client) ViewCount(name string, key minidb.Value) (int, error) {
	var n int64
	err := c.call(opViewCount,
		func(b *bytes.Buffer) {
			minidb.WirePutString(b, name)
			minidb.WirePutValue(b, key)
		},
		func(r *bytes.Reader) (e error) { n, e = minidb.WireVarint(r); return })
	return int(n), err
}

// RunAnalytics ships an aggregate query to the server and decodes the
// (small) result — the segments never cross the wire. Client implements
// colseg.Runner, so a replica DM can hand it straight to its analytics
// path.
func (c *Client) RunAnalytics(q colseg.Query) (*colseg.Result, error) {
	var res *colseg.Result
	err := c.call(opAnalytics,
		func(b *bytes.Buffer) { colseg.EncodeQuery(b, q) },
		func(r *bytes.Reader) (e error) { res, e = colseg.DecodeResult(r); return })
	return res, err
}

var _ colseg.Runner = (*Client)(nil)

// BeginTx opens an interactive transaction. The transaction owns one
// connection end to end — the server routes that connection's operations
// through its transaction until Commit or Rollback — and holds the
// remote writer lock the whole time, exactly like a local *Txn.
//
// The Engine interface cannot return an error here; failures surface on
// the transaction's first operation and on Commit.
func (c *Client) BeginTx() minidb.Tx {
	tx := &remoteTx{client: c}
	wc, err := c.get()
	if err != nil {
		tx.err = err
		return tx
	}
	var req bytes.Buffer
	beginDeadlineEnv(&req, c.opts.CallTimeout)
	req.WriteByte(opBegin)
	// Begin blocks on the remote writer lock, so give it the full call
	// timeout rather than failing fast under write contention.
	resp, err := wc.roundTrip(req.Bytes(), c.opts.CallTimeout, c.opts.MaxFrame)
	if err != nil {
		wc.c.Close()
		tx.err = &UnavailableError{Addr: c.opts.Addr, Err: err}
		return tx
	}
	if _, err := parseResponse(resp, c.opts.CallTimeout); err != nil {
		wc.c.Close()
		tx.err = err
		return tx
	}
	tx.wc = wc
	return tx
}

// remoteTx is a transaction pinned to one connection.
type remoteTx struct {
	client *Client
	wc     *wireConn
	err    error // sticky: begin failure or first transport failure
	done   bool
}

var _ minidb.Tx = (*remoteTx)(nil)

func (t *remoteTx) call(op byte, enc func(*bytes.Buffer), dec func(*bytes.Reader) error) error {
	if t.err != nil {
		return t.err
	}
	if t.done {
		return fmt.Errorf("dbnet: transaction already finished")
	}
	var req bytes.Buffer
	beginDeadlineEnv(&req, t.client.opts.CallTimeout)
	req.WriteByte(op)
	if enc != nil {
		enc(&req)
	}
	resp, err := t.wc.roundTrip(req.Bytes(), t.client.opts.CallTimeout, t.client.opts.MaxFrame)
	if err != nil {
		// Transport failure mid-transaction: the connection is the
		// transaction, so it is dead. The server reaps it on its side.
		t.err = &UnavailableError{Addr: t.client.opts.Addr, Err: err}
		t.wc.c.Close()
		t.done = true
		return t.err
	}
	r, err := parseResponse(resp, t.client.opts.CallTimeout)
	if err != nil {
		if IsDeadline(err) {
			// A deadline refusal mid-transaction poisons it: the server may
			// have rolled the transaction back (commit refusal does), so the
			// safe shared state is "this transaction is over".
			t.err = err
			t.wc.c.Close()
			t.done = true
			return err
		}
		// Application errors — including overload refusals, which execute
		// nothing and leave the transaction open server-side — keep the
		// transaction usable; the caller decides whether to back off,
		// retry the operation, or roll back.
		return err
	}
	if dec != nil {
		if err := dec(r); err != nil {
			t.err = fmt.Errorf("dbnet: decode response: %w", err)
			t.wc.c.Close()
			t.done = true
			return t.err
		}
	}
	return nil
}

func (t *remoteTx) Insert(table string, row minidb.Row) (int64, error) {
	var id int64
	err := t.call(opInsert,
		func(b *bytes.Buffer) {
			minidb.WirePutString(b, table)
			minidb.WirePutRow(b, row)
		},
		func(r *bytes.Reader) (e error) { id, e = minidb.WireVarint(r); return })
	return id, err
}

func (t *remoteTx) Update(table string, rowid int64, row minidb.Row) error {
	return t.call(opUpdate, func(b *bytes.Buffer) {
		minidb.WirePutString(b, table)
		minidb.WirePutVarint(b, rowid)
		minidb.WirePutRow(b, row)
	}, nil)
}

func (t *remoteTx) Delete(table string, rowid int64) error {
	return t.call(opDelete, func(b *bytes.Buffer) {
		minidb.WirePutString(b, table)
		minidb.WirePutVarint(b, rowid)
	}, nil)
}

func (t *remoteTx) Query(q minidb.Query) (*minidb.Result, error) {
	var res *minidb.Result
	err := t.call(opQuery,
		func(b *bytes.Buffer) { minidb.WirePutQuery(b, q) },
		func(r *bytes.Reader) (e error) { res, e = minidb.WireResult(r); return })
	return res, err
}

func (t *remoteTx) Get(table string, rowid int64) (minidb.Row, error) {
	var row minidb.Row
	err := t.call(opGet,
		func(b *bytes.Buffer) {
			minidb.WirePutString(b, table)
			minidb.WirePutVarint(b, rowid)
		},
		func(r *bytes.Reader) (e error) { row, e = minidb.WireRow(r); return })
	return row, err
}

func (t *remoteTx) Commit() error {
	if err := t.call(opCommit, nil, nil); err != nil {
		t.finish(false)
		return err
	}
	t.finish(true)
	return nil
}

func (t *remoteTx) Rollback() {
	if t.err != nil || t.done {
		return
	}
	if err := t.call(opRollback, nil, nil); err != nil {
		t.finish(false)
		return
	}
	t.finish(true)
}

// finish releases the transaction's connection — back to the pool if the
// wire is still in a known-good state, closed otherwise.
func (t *remoteTx) finish(healthy bool) {
	if t.done {
		return
	}
	t.done = true
	if healthy && t.err == nil && t.wc != nil {
		t.client.put(t.wc)
	} else if t.wc != nil {
		t.wc.c.Close()
	}
}
