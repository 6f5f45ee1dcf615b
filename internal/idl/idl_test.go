package idl

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func echoServer(t *testing.T) *Server {
	t.Helper()
	s := NewServer("idl-0")
	s.Register("echo", func(ctx context.Context, args Args) (Args, error) {
		return Args{"echo": args["x"]}, nil
	})
	s.Register("slow", func(ctx context.Context, args Args) (Args, error) {
		select {
		case <-time.After(50 * time.Millisecond):
			return Args{"ok": true}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	s.Register("fail", func(ctx context.Context, args Args) (Args, error) {
		return nil, errors.New("boom")
	})
	s.Register("panics", func(ctx context.Context, args Args) (Args, error) {
		panic("interpreter segfault")
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestInvokeRoundTrip(t *testing.T) {
	s := echoServer(t)
	out, err := s.Invoke(context.Background(), "echo", Args{"x": 42})
	if err != nil {
		t.Fatal(err)
	}
	if out["echo"] != 42 {
		t.Fatalf("out = %v", out)
	}
	st := stats(s)
	if st.Invocations != 1 || st.Failures != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLifecycle(t *testing.T) {
	s := NewServer("x")
	if _, err := s.Invoke(context.Background(), "echo", nil); !errors.Is(err, ErrStopped) {
		t.Fatalf("invoke on stopped: %v", err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err == nil {
		t.Fatal("double start accepted")
	}
	if state(s) != Idle {
		t.Fatalf("state = %v", state(s))
	}
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	if state(s) != Stopped {
		t.Fatalf("state = %v", state(s))
	}
}

func TestUnknownRoutine(t *testing.T) {
	s := echoServer(t)
	if _, err := s.Invoke(context.Background(), "nope", nil); !errors.Is(err, ErrUnknownRoutine) {
		t.Fatalf("err = %v", err)
	}
}

func TestSingleThreadedBusyRejection(t *testing.T) {
	s := echoServer(t)
	var wg sync.WaitGroup
	wg.Add(1)
	started := make(chan struct{})
	s.Register("block", func(ctx context.Context, args Args) (Args, error) {
		close(started)
		time.Sleep(80 * time.Millisecond)
		return Args{}, nil
	})
	go func() {
		defer wg.Done()
		if _, err := s.Invoke(context.Background(), "block", nil); err != nil {
			t.Error(err)
		}
	}()
	<-started
	if _, err := s.Invoke(context.Background(), "echo", nil); !errors.Is(err, ErrBusy) {
		t.Fatalf("concurrent invoke err = %v, want ErrBusy", err)
	}
	if state(s) != Busy {
		t.Fatalf("state = %v", state(s))
	}
	wg.Wait()
	if state(s) != Idle {
		t.Fatalf("state after completion = %v", state(s))
	}
}

func TestRoutineErrorDoesNotKillServer(t *testing.T) {
	s := echoServer(t)
	if _, err := s.Invoke(context.Background(), "fail", nil); err == nil {
		t.Fatal("failure swallowed")
	}
	if state(s) != Idle {
		t.Fatalf("state = %v after routine error", state(s))
	}
	if _, err := s.Invoke(context.Background(), "echo", Args{"x": 1}); err != nil {
		t.Fatal(err)
	}
}

func TestPanicCrashesInterpreter(t *testing.T) {
	s := echoServer(t)
	_, err := s.Invoke(context.Background(), "panics", nil)
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("err = %v", err)
	}
	if state(s) != Crashed {
		t.Fatalf("state = %v", state(s))
	}
	if _, err := s.Invoke(context.Background(), "echo", nil); !errors.Is(err, ErrCrashed) {
		t.Fatalf("invoke on crashed: %v", err)
	}
	s.Restart()
	if _, err := s.Invoke(context.Background(), "echo", Args{"x": 1}); err != nil {
		t.Fatalf("after restart: %v", err)
	}
	st := stats(s)
	if st.Crashes != 1 || st.Restarts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestInjectedCrash(t *testing.T) {
	s := echoServer(t)
	s.InjectCrash()
	if _, err := s.Invoke(context.Background(), "echo", nil); !errors.Is(err, ErrCrashed) {
		t.Fatalf("err = %v", err)
	}
	if state(s) != Crashed {
		t.Fatalf("state = %v", state(s))
	}
}

func TestInjectedHangTimesOut(t *testing.T) {
	s := echoServer(t)
	s.InjectHang(time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := s.Invoke(ctx, "echo", nil)
	if err == nil {
		t.Fatal("hung invocation succeeded")
	}
	if time.Since(start) > 500*time.Millisecond {
		t.Fatal("timeout not honoured")
	}
}

func TestContextTimeoutMidRoutine(t *testing.T) {
	s := echoServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := s.Invoke(ctx, "slow", nil); err == nil {
		t.Fatal("slow routine beat a 10ms deadline")
	}
}

func TestRestartWhileBusy(t *testing.T) {
	s := echoServer(t)
	started := make(chan struct{})
	release := make(chan struct{})
	s.Register("wedge", func(ctx context.Context, args Args) (Args, error) {
		close(started)
		<-release
		return Args{}, nil
	})
	go s.Invoke(context.Background(), "wedge", nil)
	<-started
	s.Restart() // operator kills the wedged interpreter
	if state(s) != Idle {
		t.Fatalf("state = %v", state(s))
	}
	if _, err := s.Invoke(context.Background(), "echo", Args{"x": 9}); err != nil {
		t.Fatalf("after force restart: %v", err)
	}
	close(release)
}

func TestBusySecondsAccrue(t *testing.T) {
	s := echoServer(t)
	s.Invoke(context.Background(), "slow", nil)
	if st := stats(s); st.BusySeconds < 0.04 {
		t.Fatalf("busy seconds = %v", st.BusySeconds)
	}
}

func TestRoutinesListing(t *testing.T) {
	s := echoServer(t)
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.routines) < 4 {
		t.Fatalf("routines = %v", s.routines)
	}
}

// state reads the server's lifecycle state.
func state(s *Server) State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// stats copies the server's counters.
func stats(s *Server) Stats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.stats
}
