package fault

import (
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// echoServer accepts connections on ln and echoes whatever it reads.
func echoServer(t *testing.T, ln net.Listener) {
	t.Helper()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				io.Copy(c, c)
			}(c)
		}
	}()
}

func newEchoPair(t *testing.T, n *Net) (net.Conn, func()) {
	t.Helper()
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	echoServer(t, raw)
	c, err := n.Dial("tcp", raw.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return c, func() { c.Close(); raw.Close() }
}

func TestNetOpCounting(t *testing.T) {
	n := NewNet()
	c, cleanup := newEchoPair(t, n)
	defer cleanup()

	if got := n.OpCount(); got != 1 { // the dial
		t.Fatalf("OpCount after dial = %d, want 1", got)
	}
	if _, err := c.Write([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if got := n.OpCount(); got < 3 {
		t.Fatalf("OpCount after write+read = %d, want >= 3", got)
	}
}

func TestNetReset(t *testing.T) {
	n := NewNet()
	c, cleanup := newEchoPair(t, n)
	defer cleanup()

	n.SetFault(n.OpCount()+1, NetReset)
	_, err := c.Write([]byte("doomed"))
	if err == nil {
		t.Fatal("write after armed reset succeeded")
	}
	var op *net.OpError
	if !errors.As(err, &op) {
		t.Fatalf("reset error is %T, want *net.OpError", err)
	}
	if !n.Faulted() {
		t.Fatal("Faulted() false after reset fired")
	}
	// The connection is dead; others are fine.
	if _, err := c.Write([]byte("x")); err == nil {
		t.Fatal("write on reset conn succeeded")
	}
	c2, err := n.Dial("tcp", c.RemoteAddr().String(), time.Second)
	if err != nil {
		t.Fatalf("new dial after one-shot reset: %v", err)
	}
	defer c2.Close()
	if _, err := c2.Write([]byte("ok")); err != nil {
		t.Fatalf("write on fresh conn after one-shot reset: %v", err)
	}
}

func TestNetPartitionDeadlineAndHeal(t *testing.T) {
	n := NewNet()
	c, cleanup := newEchoPair(t, n)
	defer cleanup()

	if _, err := c.Write([]byte("a")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}

	// Partition: a read with a deadline surfaces a timeout, promptly.
	n.SetFault(n.OpCount()+1, NetPartition)
	c.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	start := time.Now()
	_, err := c.Read(buf)
	if err == nil {
		t.Fatal("read during partition succeeded")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("partition read error = %v, want net.Error timeout", err)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("partition read blocked %v, want ~50ms", el)
	}

	// Dials are also cut off, with Op "dial".
	_, err = n.Dial("tcp", c.RemoteAddr().String(), 30*time.Millisecond)
	var op *net.OpError
	if !errors.As(err, &op) || op.Op != "dial" {
		t.Fatalf("partition dial error = %v, want *net.OpError op=dial", err)
	}

	// Heal: blocked ops resume. Start a read with a far deadline, heal
	// mid-block, see the echo arrive.
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	done := make(chan error, 1)
	go func() {
		_, err := c.Write([]byte("b")) // blocks on partition
		if err != nil {
			done <- err
			return
		}
		_, err = io.ReadFull(c, buf)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	n.ClearFault()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("after heal: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("ops still blocked after ClearFault")
	}
}

func TestNetPartitionCloseUnblocks(t *testing.T) {
	n := NewNet()
	c, cleanup := newEchoPair(t, n)
	defer cleanup()

	n.SetFault(n.OpCount()+1, NetPartition)
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 1)
		_, err := c.Read(buf) // no deadline: would block forever
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	c.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("read returned nil after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not unblock partitioned read")
	}
}

func TestNetBlackHole(t *testing.T) {
	n := NewNet()
	c, cleanup := newEchoPair(t, n)
	defer cleanup()

	n.SetFault(n.OpCount()+1, NetBlackHole)
	// Writes "succeed"...
	if _, err := c.Write([]byte("gone")); err != nil {
		t.Fatalf("black-hole write errored: %v", err)
	}
	// ...but nothing comes back: the read times out.
	c.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	buf := make([]byte, 4)
	if _, err := c.Read(buf); err == nil {
		t.Fatal("read got data through a black hole")
	}
}

func TestNetSlowDrip(t *testing.T) {
	n := NewNet()
	n.Delay = 5 * time.Millisecond
	c, cleanup := newEchoPair(t, n)
	defer cleanup()

	if _, err := c.Write([]byte("abcd")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}

	n.SetFault(n.OpCount()+1, NetSlowDrip)
	if _, err := c.Write([]byte("wxyz")); err != nil {
		t.Fatalf("slow-drip write errored: %v", err)
	}
	start := time.Now()
	got := make([]byte, 0, 3)
	one := make([]byte, 8)
	for len(got) < 3 {
		nr, err := c.Read(one)
		if err != nil {
			t.Fatal(err)
		}
		if nr > 1 {
			t.Fatalf("slow-drip read returned %d bytes, want <= 1", nr)
		}
		got = append(got, one[:nr]...)
	}
	if el := time.Since(start); el < 10*time.Millisecond {
		t.Fatalf("3 dripped bytes arrived in %v, want >= 10ms", el)
	}
	if !strings.HasPrefix("wxyz", string(got)) {
		t.Fatalf("dripped bytes = %q", got)
	}
}

func TestNetDropHalf(t *testing.T) {
	n := NewNet()
	c, cleanup := newEchoPair(t, n)
	defer cleanup()

	n.SetFault(n.OpCount()+1, NetDropHalf)
	nw, err := c.Write([]byte("0123456789"))
	if err == nil {
		t.Fatal("drop-half write reported success")
	}
	if nw != 5 {
		t.Fatalf("drop-half wrote %d bytes, want 5", nw)
	}
	// The connection died with the torn frame.
	if _, err := c.Write([]byte("x")); err == nil {
		t.Fatal("write after torn frame succeeded")
	}
}

func TestNetLatency(t *testing.T) {
	n := NewNet()
	n.Delay = 20 * time.Millisecond
	c, cleanup := newEchoPair(t, n)
	defer cleanup()

	n.SetFault(n.OpCount()+1, NetLatency)
	start := time.Now()
	if _, err := c.Write([]byte("z")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 40*time.Millisecond {
		t.Fatalf("latency round trip took %v, want >= 40ms (2 ops x 20ms)", el)
	}
	n.ClearFault()
	start = time.Now()
	if _, err := c.Write([]byte("z")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 15*time.Millisecond {
		t.Fatalf("post-heal round trip took %v, want fast", el)
	}
}

func TestNetListenerSeam(t *testing.T) {
	n := NewNet()
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	ln := &faultListener{Listener: raw, net: n}
	echoServer(t, ln)

	c, err := net.Dial("tcp", ln.Addr().String()) // plain client: server side is wrapped
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("m")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if n.OpCount() < 2 { // server-side read+write counted
		t.Fatalf("OpCount = %d, want >= 2 (server-side ops)", n.OpCount())
	}

	// Partition the server side: the client's read stalls to its deadline.
	n.SetFault(n.OpCount()+1, NetPartition)
	c.SetDeadline(time.Now().Add(50 * time.Millisecond))
	if _, err := c.Write([]byte("m")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(buf); err == nil {
		t.Fatal("read through server-side partition succeeded")
	}
}

// faultListener runs every accepted connection through the injector: the
// server side of a link, where dialers cover the client side.
type faultListener struct {
	net.Listener
	net *Net
}

func (l *faultListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.net.wrap(c), nil
}
