// Net is the network analogue of FS: a deterministic fault injector for
// the cluster's wire hops. It wraps net.Conn, net.Listener and dialing
// behind one op counter — every dial, read and write on the wrapped hop is
// a counted operation — and fires an armed fault at exactly the Nth one,
// in the shapes real networks fail: added latency, a partition that eats
// packets until it heals, a connection reset, reads slowed to a drip, a
// black hole that acknowledges writes into the void, and a write torn
// mid-frame.
//
// One Net instance models one hop (say, replica→database); a harness that
// wants to break two hops independently uses two instances. Injection
// decisions are serialized under one mutex, so the Nth-operation trigger
// is exact within a run even under -race. Unlike FS, concurrent
// connections make the op interleaving schedule-dependent across runs —
// the guarantee is "exactly one fault, at a counted op, of a chosen
// shape", which is what schedule enumeration needs.
//
// Blocking faults (partition, black hole) respect the three ways a caller
// can get out: the connection's deadline, closing the connection, and
// ClearFault (the partition heals). Nothing in this file can hang a
// deadline-disciplined caller forever.
package fault

import (
	"context"
	"net"
	"sync"
	"time"
)

// NetMode selects the shape of the injected network fault.
type NetMode int

const (
	// NetLatency: from the Nth op on, every counted op pays Delay before
	// proceeding. Models a congested or distant path.
	NetLatency NetMode = iota
	// NetPartition: from the Nth op on, the hop drops all packets — reads
	// and writes block until the connection's deadline, its Close, or
	// ClearFault (the partition heals); new dials time out. Models a
	// switch failure or iptables DROP.
	NetPartition
	// NetReset: the Nth op fails with a connection reset and that
	// connection is dead; other connections are untouched. Models a peer
	// crash or RST injection.
	NetReset
	// NetSlowDrip: from the Nth op on, reads deliver at most one byte per
	// Delay. The peer is alive but pathologically slow — the classic
	// slow-loris shape that exposes missing deadlines.
	NetSlowDrip
	// NetBlackHole: from the Nth op on, writes claim success but the bytes
	// vanish, and reads block like a partition. Models asymmetric loss:
	// the kernel buffers accept the frame, the wire never delivers it.
	NetBlackHole
	// NetDropHalf: the Nth write sends only the first half of its buffer,
	// then the connection resets — a frame torn mid-flight. The peer sees
	// a truncated frame and a dead connection.
	NetDropHalf
)

// String names the mode.
func (m NetMode) String() string {
	switch m {
	case NetLatency:
		return "latency"
	case NetPartition:
		return "partition"
	case NetReset:
		return "reset"
	case NetSlowDrip:
		return "slowdrip"
	case NetBlackHole:
		return "blackhole"
	case NetDropHalf:
		return "drophalf"
	}
	return "netmode(?)"
}

// netOpError builds the error an injected fault surfaces: a *net.OpError
// so callers' errors.As(&net.OpError) discrimination (dial vs established)
// keeps working on injected faults exactly as on real ones.
func netOpError(op string, err error) error {
	return &net.OpError{Op: op, Net: "tcp", Err: err}
}

// faultErr is the terminal error of reset-style faults.
type faultErr string

func (e faultErr) Error() string { return string(e) }

// ErrInjectedReset is the cause inside the *net.OpError returned by
// NetReset and NetDropHalf faults.
const ErrInjectedReset = faultErr("fault: injected connection reset")

// timeoutErr satisfies net.Error with Timeout()==true, as a blocked
// partition surfacing at a deadline must.
type timeoutErr string

func (e timeoutErr) Error() string   { return string(e) }
func (e timeoutErr) Timeout() bool   { return true }
func (e timeoutErr) Temporary() bool { return true }

// ErrInjectedTimeout is the cause carried by deadline expiries inside
// injected partitions and black holes.
const ErrInjectedTimeout = timeoutErr("fault: injected i/o timeout")

// Net injects faults on one network hop.
type Net struct {
	// Delay is the injected latency unit: the per-op pause of NetLatency
	// and the per-byte pause of NetSlowDrip. Set before arming; default
	// 2ms.
	Delay time.Duration

	mu      sync.Mutex
	ops     int
	faultAt int // 0 = disarmed (ops still count)
	mode    NetMode
	active  bool          // a from-Nth-op-on mode has fired and not healed
	oneshot bool          // a single-op mode has fired (fires at most once)
	heal    chan struct{} // closed by ClearFault to release blocked ops
}

// NewNet returns a disarmed injector.
func NewNet() *Net {
	return &Net{Delay: 2 * time.Millisecond, heal: make(chan struct{})}
}

// SetFault arms the injector: the fault fires at the nth counted network
// operation (absolute, compared against OpCount). Re-arming replaces any
// previous fault and un-heals the hop.
func (n *Net) SetFault(at int, mode NetMode) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.faultAt = at
	n.mode = mode
	n.active = false
	n.oneshot = false
	n.heal = make(chan struct{})
}

// ClearFault heals the hop: blocked partition/black-hole ops resume,
// future ops proceed cleanly. Connections already reset stay dead, as
// they would after a real RST.
func (n *Net) ClearFault() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.faultAt = 0
	if n.active {
		n.active = false
		close(n.heal)
		n.heal = make(chan struct{})
	}
}

// OpCount returns the number of counted network operations so far.
func (n *Net) OpCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ops
}

// Faulted reports whether an armed fault has fired and not been cleared.
func (n *Net) Faulted() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.active || n.oneshot
}

// decision is what one counted op must do.
type decision struct {
	mode    NetMode
	fire    bool          // apply the mode's behaviour to this op
	heal    chan struct{} // the heal channel in effect (for blocking modes)
	latency time.Duration
}

// step counts one op and decides its fate. Single-op modes (reset,
// drophalf) fire exactly once, at the armed op; persistent modes stay
// active for every later op until ClearFault.
func (n *Net) step() decision {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.ops++
	d := decision{mode: n.mode, heal: n.heal, latency: n.Delay}
	if n.active {
		d.fire = true
		return d
	}
	if n.faultAt <= 0 || n.ops < n.faultAt {
		return d
	}
	switch n.mode {
	case NetReset, NetDropHalf:
		if n.ops == n.faultAt && !n.oneshot {
			n.oneshot = true
			d.fire = true
		}
	default:
		n.active = true
		d.fire = true
	}
	return d
}

// Dial establishes a connection through the injector (dbnet's dial seam).
// A partitioned or black-holed hop makes dials hang until timeout or heal;
// the returned error wears Op "dial", so mutation-retry policies treat it
// exactly like a real unreachable host.
func (n *Net) Dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	return n.DialContext(ctx, network, addr)
}

// DialContext is the http.Transport-shaped dial seam.
func (n *Net) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	d := n.step()
	if d.fire {
		switch d.mode {
		case NetLatency:
			select {
			case <-time.After(d.latency):
			case <-ctx.Done():
				return nil, netOpError("dial", ErrInjectedTimeout)
			}
		case NetReset, NetDropHalf:
			return nil, netOpError("dial", ErrInjectedReset)
		case NetPartition, NetBlackHole:
			select {
			case <-d.heal:
				// healed: fall through to a real dial
			case <-ctx.Done():
				return nil, netOpError("dial", ErrInjectedTimeout)
			}
		case NetSlowDrip:
			// connection establishment is unaffected; the drip hits reads
		}
	}
	var dialer net.Dialer
	c, err := dialer.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	return n.wrap(c), nil
}

func (n *Net) wrap(c net.Conn) net.Conn {
	return &faultConn{Conn: c, net: n, closed: make(chan struct{})}
}

// faultConn is one wrapped connection. Deadlines are mirrored locally so
// blocking faults can honour them without kernel help; Close unblocks any
// op waiting out a partition (net/http cancels requests that way).
type faultConn struct {
	net.Conn
	net *Net

	mu        sync.Mutex
	readDL    time.Time
	writeDL   time.Time
	dead      bool // reset by an injected fault
	closeOnce sync.Once
	closed    chan struct{}
}

func (c *faultConn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDL, c.writeDL = t, t
	c.mu.Unlock()
	return c.Conn.SetDeadline(t)
}

func (c *faultConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDL = t
	c.mu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

func (c *faultConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.writeDL = t
	c.mu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}

func (c *faultConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

func (c *faultConn) deadline(read bool) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if read {
		return c.readDL
	}
	return c.writeDL
}

func (c *faultConn) kill() {
	c.mu.Lock()
	c.dead = true
	c.mu.Unlock()
	c.Conn.Close()
}

func (c *faultConn) isDead() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead
}

// block waits out a partition/black hole: until heal, deadline, or Close.
func (c *faultConn) block(op string, heal chan struct{}, read bool) error {
	var timer <-chan time.Time
	if dl := c.deadline(read); !dl.IsZero() {
		t := time.NewTimer(time.Until(dl))
		defer t.Stop()
		timer = t.C
	}
	select {
	case <-heal:
		return nil
	case <-timer:
		return netOpError(op, ErrInjectedTimeout)
	case <-c.closed:
		return netOpError(op, net.ErrClosed)
	}
}

func (c *faultConn) Read(b []byte) (int, error) {
	if c.isDead() {
		return 0, netOpError("read", ErrInjectedReset)
	}
	d := c.net.step()
	if d.fire {
		switch d.mode {
		case NetLatency:
			time.Sleep(d.latency)
		case NetReset, NetDropHalf:
			c.kill()
			return 0, netOpError("read", ErrInjectedReset)
		case NetPartition, NetBlackHole:
			if err := c.block("read", d.heal, true); err != nil {
				return 0, err
			}
		case NetSlowDrip:
			time.Sleep(d.latency)
			if len(b) > 1 {
				b = b[:1]
			}
		}
	}
	return c.Conn.Read(b)
}

func (c *faultConn) Write(b []byte) (int, error) {
	if c.isDead() {
		return 0, netOpError("write", ErrInjectedReset)
	}
	d := c.net.step()
	if d.fire {
		switch d.mode {
		case NetLatency:
			time.Sleep(d.latency)
		case NetReset:
			c.kill()
			return 0, netOpError("write", ErrInjectedReset)
		case NetDropHalf:
			half := len(b) / 2
			n, _ := c.Conn.Write(b[:half])
			c.kill()
			return n, netOpError("write", ErrInjectedReset)
		case NetPartition:
			if err := c.block("write", d.heal, false); err != nil {
				return 0, err
			}
		case NetBlackHole:
			// The kernel "accepted" the bytes; the wire lost them.
			return len(b), nil
		case NetSlowDrip:
			// The drip throttles reads; writes pass.
		}
	}
	return c.Conn.Write(b)
}
