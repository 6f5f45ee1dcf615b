package dbnet

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/colseg"
	"repro/internal/minidb"
)

// Options configures a database server.
type Options struct {
	// DB is the engine being served (normally a local *minidb.DB).
	DB minidb.Engine
	// MaxOpsPerSec caps query/write throughput, modeling the ~120
	// queries/second ceiling HEDC measured against its DBMS (§7.3).
	// Zero means unlimited.
	MaxOpsPerSec float64
	// MaxQueueDelay bounds the capacity station's projected queue wait:
	// a request that would sit longer than this before service is
	// refused at the socket with statusOverload and a retry-after hint,
	// instead of deepening a backlog nobody can drain. Zero disables
	// (requests queue without bound, the pre-overload-control behavior).
	// Commits are exempt — refusing a commit throws away a transaction's
	// completed work, the worst possible goodput trade.
	MaxQueueDelay time.Duration
	// TxnIdleTimeout bounds how long an interactive transaction may sit
	// idle holding the writer lock before the server rolls it back and
	// drops the connection. Default 10s.
	TxnIdleTimeout time.Duration
	// maxFrame bounds request frames. Default DefaultMaxFrame.
	maxFrame int
	// Analytics serves opAnalytics from columnar segments. Nil falls back
	// to a row-at-a-time scan over DB — still one round trip, just slower.
	Analytics colseg.Runner
	// Logger receives per-connection errors. Nil discards them.
	Logger *log.Logger
}

// Server serves one minidb engine to many replica clients.
type Server struct {
	opts    Options
	db      minidb.Engine
	station *serialStation
	ln      net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	ops      atomic.Int64 // capacity-counted operations served
	freeOps  atomic.Int64 // exempt operations (epochs, schemas, pings)
	txns     atomic.Int64 // interactive transactions begun
	timeouts atomic.Int64 // transactions reaped by the idle timeout
	refused  atomic.Int64 // requests refused because their deadline would expire in queue
	sheds    atomic.Int64 // requests refused because the queue delay bound was exceeded
}

// Listen starts a server on addr ("127.0.0.1:0" picks a free port).
func Listen(addr string, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return Serve(ln, opts), nil
}

// Serve starts a server on an existing listener.
func Serve(ln net.Listener, opts Options) *Server {
	if opts.TxnIdleTimeout <= 0 {
		opts.TxnIdleTimeout = 10 * time.Second
	}
	if opts.maxFrame <= 0 {
		opts.maxFrame = DefaultMaxFrame
	}
	s := &Server{
		opts:    opts,
		db:      opts.DB,
		station: newSerialStation(opts.MaxOpsPerSec),
		ln:      ln,
		conns:   make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Ops returns capacity-counted operations served so far.
func (s *Server) Ops() int64 { return s.ops.Load() }

// FreeOps returns capacity-exempt operations served so far.
func (s *Server) FreeOps() int64 { return s.freeOps.Load() }

// Txns returns interactive transactions begun; TxnTimeouts counts those
// reaped while idle.
func (s *Server) Txns() int64        { return s.txns.Load() }
func (s *Server) TxnTimeouts() int64 { return s.timeouts.Load() }

// DeadlineRefusals returns requests turned away because their propagated
// deadline would have expired before the capacity station could serve them.
func (s *Server) DeadlineRefusals() int64 { return s.refused.Load() }

// OverloadRefusals returns requests turned away with statusOverload
// because the station's projected queue delay exceeded MaxQueueDelay.
func (s *Server) OverloadRefusals() int64 { return s.sheds.Load() }

// Close stops accepting, closes every live connection, and waits for the
// handlers to drain. The engine itself is not closed.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logger != nil {
		s.opts.Logger.Printf(format, args...)
	}
}

// handle runs one connection's request loop. A connection inside an
// interactive transaction reads under a deadline so a dead client cannot
// hold the single writer lock forever.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()

	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	var tx minidb.Tx // non-nil while this connection is mid-transaction
	defer func() {
		if tx != nil {
			tx.Rollback()
		}
	}()

	for {
		if tx != nil {
			conn.SetReadDeadline(time.Now().Add(s.opts.TxnIdleTimeout))
		} else {
			conn.SetReadDeadline(time.Time{})
		}
		req, err := readFrame(br, s.opts.maxFrame)
		if err != nil {
			var nerr net.Error
			if tx != nil && errors.As(err, &nerr) && nerr.Timeout() {
				s.timeouts.Add(1)
				s.logf("dbnet: %s: reaping idle transaction: %v", conn.RemoteAddr(), err)
			} else if !errors.Is(err, io.EOF) {
				s.logf("dbnet: %s: read: %v", conn.RemoteAddr(), err)
			}
			return
		}
		if len(req) == 0 {
			s.logf("dbnet: %s: empty frame", conn.RemoteAddr())
			return
		}
		resp, newTx := s.dispatch(req[0], bytes.NewReader(req[1:]), tx, time.Time{})
		tx = newTx
		err = writeFrame(bw, resp.Bytes())
		putFrameBuf(resp)
		if err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

func okFrame(body func(*bytes.Buffer)) *bytes.Buffer {
	b := getFrameBuf()
	b.WriteByte(statusOK)
	if body != nil {
		body(b)
	}
	return b
}

func errFrame(err error) *bytes.Buffer {
	b := getFrameBuf()
	b.WriteByte(statusErr)
	minidb.WirePutString(b, err.Error())
	return b
}

// deadlineFrame is the refusal response: the request's deadline budget
// would have expired before the station could serve it, so no work was
// done and no capacity consumed.
func deadlineFrame() *bytes.Buffer {
	b := getFrameBuf()
	b.WriteByte(statusDeadline)
	return b
}

// overloadFrame is the backpressure refusal: the station's projected
// queue wait exceeded the configured bound. The body carries the
// projected delay in milliseconds as the retry-after hint — coming back
// sooner than the backlog the request just saw can drain is guaranteed
// to be refused again.
func overloadFrame(retryAfter time.Duration) *bytes.Buffer {
	b := getFrameBuf()
	b.WriteByte(statusOverload)
	ms := uint64(retryAfter / time.Millisecond)
	if ms == 0 {
		ms = 1
	}
	minidb.WirePutUvarint(b, ms)
	return b
}

// dispatch decodes and executes one request. It returns the response
// frame (a pooled buffer the caller must return via putFrameBuf) and the
// connection's transaction state after the request. deadline is the
// client's propagated give-up instant (zero: none): capacity-charged
// operations whose queue departure would pass it are refused up front.
func (s *Server) dispatch(op byte, r *bytes.Reader, tx minidb.Tx, deadline time.Time) (resp *bytes.Buffer, txOut minidb.Tx) {
	txOut = tx
	fail := func(err error) (*bytes.Buffer, minidb.Tx) { return errFrame(err), txOut }

	switch op {
	case opDeadline:
		// Envelope: [uvarint budgetMillis][inner request]. The budget is
		// relative, so clock skew between client and server cancels out —
		// only the one-way trip time erodes it.
		ms, err := minidb.WireUvarint(r)
		if err != nil {
			return fail(fmt.Errorf("dbnet: mangled deadline envelope: %w", err))
		}
		inner, err := r.ReadByte()
		if err != nil {
			return fail(fmt.Errorf("dbnet: empty deadline envelope"))
		}
		if inner == opDeadline {
			return fail(fmt.Errorf("dbnet: nested deadline envelope"))
		}
		if ms > uint64(time.Hour/time.Millisecond) {
			ms = uint64(time.Hour / time.Millisecond)
		}
		return s.dispatch(inner, r, tx, time.Now().Add(time.Duration(ms)*time.Millisecond))

	case opPing:
		s.freeOps.Add(1)
		return okFrame(nil), txOut

	case opTableEpoch:
		// Epoch reads are exempt from the capacity model: they are the
		// cache-coherence heartbeat of every replica's query cache, tiny
		// on a real DBMS, and charging them would let cache *checks*
		// saturate the station the cache exists to protect.
		name, err := minidb.WireString(r)
		if err != nil {
			return fail(err)
		}
		s.freeOps.Add(1)
		epoch := s.db.TableEpoch(name)
		return okFrame(func(b *bytes.Buffer) { minidb.WirePutUvarint(b, epoch) }), txOut

	case opSchema:
		name, err := minidb.WireString(r)
		if err != nil {
			return fail(err)
		}
		s.freeOps.Add(1)
		schema := s.db.Schema(name)
		return okFrame(func(b *bytes.Buffer) { minidb.WirePutSchema(b, schema) }), txOut

	case opTableNames:
		s.freeOps.Add(1)
		names := s.db.TableNames()
		return okFrame(func(b *bytes.Buffer) {
			minidb.WirePutUvarint(b, uint64(len(names)))
			for _, n := range names {
				minidb.WirePutString(b, n)
			}
		}), txOut

	case opTableLen:
		name, err := minidb.WireString(r)
		if err != nil {
			return fail(err)
		}
		s.freeOps.Add(1)
		n := s.db.TableLen(name)
		return okFrame(func(b *bytes.Buffer) { minidb.WirePutVarint(b, int64(n)) }), txOut

	case opStats:
		s.freeOps.Add(1)
		st := s.db.Stats()
		return okFrame(func(b *bytes.Buffer) { minidb.WirePutStats(b, st) }), txOut

	case opCreateView:
		name, err := minidb.WireString(r)
		if err != nil {
			return fail(err)
		}
		table, err := minidb.WireString(r)
		if err != nil {
			return fail(err)
		}
		groupBy, err := minidb.WireString(r)
		if err != nil {
			return fail(err)
		}
		s.freeOps.Add(1)
		if err := s.db.CreateCountView(name, table, groupBy); err != nil {
			return fail(err)
		}
		return okFrame(nil), txOut

	case opQuery:
		q, err := minidb.WireQuery(r)
		if err != nil {
			return fail(err)
		}
		if f := s.admit(deadline, true); f != nil {
			return f, txOut
		}
		var res *minidb.Result
		if tx != nil {
			res, err = tx.Query(q)
		} else {
			res, err = s.db.Query(q)
		}
		if err != nil {
			return fail(err)
		}
		return okFrame(func(b *bytes.Buffer) { minidb.WirePutResult(b, res) }), txOut

	case opGet:
		table, err := minidb.WireString(r)
		if err != nil {
			return fail(err)
		}
		rowid, err := minidb.WireVarint(r)
		if err != nil {
			return fail(err)
		}
		if f := s.admit(deadline, true); f != nil {
			return f, txOut
		}
		var row minidb.Row
		if tx != nil {
			row, err = tx.Get(table, rowid)
		} else {
			row, err = s.db.Get(table, rowid)
		}
		if err != nil {
			return fail(err)
		}
		return okFrame(func(b *bytes.Buffer) { minidb.WirePutRow(b, row) }), txOut

	case opInsert:
		table, err := minidb.WireString(r)
		if err != nil {
			return fail(err)
		}
		row, err := minidb.WireRow(r)
		if err != nil {
			return fail(err)
		}
		if f := s.admit(deadline, true); f != nil {
			return f, txOut
		}
		var id int64
		if tx != nil {
			id, err = tx.Insert(table, row)
		} else {
			id, err = s.db.Insert(table, row)
		}
		if err != nil {
			return fail(err)
		}
		return okFrame(func(b *bytes.Buffer) { minidb.WirePutVarint(b, id) }), txOut

	case opUpdate:
		table, err := minidb.WireString(r)
		if err != nil {
			return fail(err)
		}
		rowid, err := minidb.WireVarint(r)
		if err != nil {
			return fail(err)
		}
		row, err := minidb.WireRow(r)
		if err != nil {
			return fail(err)
		}
		if f := s.admit(deadline, true); f != nil {
			return f, txOut
		}
		if tx != nil {
			err = tx.Update(table, rowid, row)
		} else {
			err = s.db.Update(table, rowid, row)
		}
		if err != nil {
			return fail(err)
		}
		return okFrame(nil), txOut

	case opDelete:
		table, err := minidb.WireString(r)
		if err != nil {
			return fail(err)
		}
		rowid, err := minidb.WireVarint(r)
		if err != nil {
			return fail(err)
		}
		if f := s.admit(deadline, true); f != nil {
			return f, txOut
		}
		if tx != nil {
			err = tx.Delete(table, rowid)
		} else {
			err = s.db.Delete(table, rowid)
		}
		if err != nil {
			return fail(err)
		}
		return okFrame(nil), txOut

	case opExecBatch:
		if tx != nil {
			return fail(fmt.Errorf("dbnet: batch inside transaction"))
		}
		batch, err := minidb.WireBatch(r)
		if err != nil {
			return fail(err)
		}
		if f := s.admit(deadline, true); f != nil {
			return f, txOut
		}
		ids, err := s.db.Apply(batch)
		if err != nil {
			return fail(err)
		}
		return okFrame(func(b *bytes.Buffer) { wirePutRowIDs(b, ids) }), txOut

	case opAnalytics:
		q, err := colseg.DecodeQuery(r)
		if err != nil {
			return fail(err)
		}
		// One aggregate scan is one operation against the capacity
		// station — that asymmetry (a full-table aggregate for the price
		// of one op) is exactly what the columnar path buys.
		if f := s.admit(deadline, true); f != nil {
			return f, txOut
		}
		var res *colseg.Result
		if s.opts.Analytics != nil {
			res, err = s.opts.Analytics.RunAnalytics(q)
		} else {
			res, err = colseg.RunRows(s.db, q)
		}
		if err != nil {
			return fail(err)
		}
		return okFrame(func(b *bytes.Buffer) { colseg.EncodeResult(b, res) }), txOut

	case opViewCount:
		name, err := minidb.WireString(r)
		if err != nil {
			return fail(err)
		}
		key, err := minidb.WireValue(r)
		if err != nil {
			return fail(err)
		}
		if f := s.admit(deadline, true); f != nil {
			return f, txOut
		}
		n, err := s.db.ViewCount(name, key)
		if err != nil {
			return fail(err)
		}
		return okFrame(func(b *bytes.Buffer) { minidb.WirePutVarint(b, int64(n)) }), txOut

	case opBegin:
		if tx != nil {
			return fail(fmt.Errorf("dbnet: transaction already open on this connection"))
		}
		s.txns.Add(1)
		// BeginTx blocks on the engine's single writer lock; every
		// replica's writes serialize here, exactly as they would against
		// a shared DBMS.
		return okFrame(nil), s.db.BeginTx()

	case opCommit:
		if tx == nil {
			return fail(fmt.Errorf("dbnet: commit outside transaction"))
		}
		if f := s.admit(deadline, false); f != nil {
			// The committing client has already given up; holding the
			// writer lock for a reply nobody reads would starve everyone
			// else. Roll back — the client's transaction handle poisons
			// itself on the deadline status, so both sides agree it died.
			// (Overload never refuses a commit — admit's overloadable
			// flag is off — because the transaction's work is already
			// done and refusing it is the worst goodput trade possible.)
			tx.Rollback()
			return f, nil
		}
		txOut = nil
		if err := tx.Commit(); err != nil {
			return errFrame(err), nil
		}
		return okFrame(nil), nil

	case opRollback:
		if tx == nil {
			return fail(fmt.Errorf("dbnet: rollback outside transaction"))
		}
		txOut = nil
		tx.Rollback()
		return okFrame(nil), nil

	default:
		return fail(fmt.Errorf("dbnet: unknown opcode %d", op))
	}
}

// wirePutRowIDs / wireRowIDs encode a batch response's insert rowids.
func wirePutRowIDs(b *bytes.Buffer, ids []int64) {
	minidb.WirePutUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		minidb.WirePutVarint(b, id)
	}
}

func wireRowIDs(r *bytes.Reader) ([]int64, error) {
	n, err := minidb.WireUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Len()) {
		return nil, fmt.Errorf("dbnet: rowid count %d exceeds payload", n)
	}
	if n == 0 {
		return nil, nil
	}
	ids := make([]int64, n)
	for i := range ids {
		if ids[i], err = minidb.WireVarint(r); err != nil {
			return nil, err
		}
	}
	return ids, nil
}

// admit accounts one operation against the shared capacity station. It
// returns nil when the operation was served; otherwise a refusal frame —
// statusDeadline when the client's deadline would expire before service
// (work for a caller that already gave up is pure waste), statusOverload
// when the projected queue wait exceeds MaxQueueDelay (work the backlog
// dooms is refused at the socket with a retry-after hint). overloadable
// gates the latter: commits never refuse on overload, only on deadline.
func (s *Server) admit(deadline time.Time, overloadable bool) *bytes.Buffer {
	maxQueue := time.Duration(0)
	if overloadable {
		maxQueue = s.opts.MaxQueueDelay
	}
	switch verdict, wait := s.station.visit(deadline, maxQueue); verdict {
	case visitDeadline:
		s.refused.Add(1)
		return deadlineFrame()
	case visitOverload:
		s.sheds.Add(1)
		return overloadFrame(wait)
	}
	s.ops.Add(1)
	return nil
}

// serialStation models the database tier as a single serial service
// center: operations queue and depart at most rate per second no matter
// how many connections submit them. This is what makes the Figure 5
// ceiling observable over the network — past ~rate ops/s, added replicas
// add queueing delay, not throughput (§7.3).
type serialStation struct {
	service time.Duration // per-operation service demand; 0 = unlimited
	mu      sync.Mutex
	next    time.Time // when the station is next free
}

func newSerialStation(ratePerSec float64) *serialStation {
	st := &serialStation{}
	if ratePerSec > 0 {
		st.service = time.Duration(float64(time.Second) / ratePerSec)
	}
	return st
}

// visitVerdict is the station's admission decision.
type visitVerdict int

const (
	visitOK       visitVerdict = iota
	visitDeadline              // the caller's deadline would expire before departure
	visitOverload              // the projected queue wait exceeds maxQueue
)

// visit occupies the station for one service time, sleeping (outside the
// lock) until this operation's departure instant. Refusals consume no
// capacity and never advance the queue: a non-zero deadline that would
// pass before departure yields visitDeadline; a non-zero maxQueue that
// the projected wait-for-service exceeds yields visitOverload along
// with that projected wait (the retry-after hint — the backlog cannot
// drain sooner).
func (st *serialStation) visit(deadline time.Time, maxQueue time.Duration) (visitVerdict, time.Duration) {
	now := time.Now()
	if !deadline.IsZero() && now.After(deadline) {
		return visitDeadline, 0
	}
	if st.service == 0 {
		return visitOK, 0
	}
	st.mu.Lock()
	start := st.next
	if start.Before(now) {
		start = now
	}
	if wait := start.Sub(now); maxQueue > 0 && wait > maxQueue {
		st.mu.Unlock()
		return visitOverload, wait
	}
	depart := start.Add(st.service)
	if !deadline.IsZero() && depart.After(deadline) {
		st.mu.Unlock()
		return visitDeadline, 0
	}
	st.next = depart
	st.mu.Unlock()
	time.Sleep(time.Until(depart))
	return visitOK, 0
}
