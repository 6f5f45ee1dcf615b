// Package idl simulates the native IDL interpreter servers that execute
// HEDC's analysis routines. The real ones (IDL 5.4 running the Solar
// Software Tree) "provide only rudimentary job control, data management,
// and error recovery functionality" (§2.3) — which is precisely the
// contract simulated here: a server runs one routine at a time, rejects
// concurrent invocations, can hang or crash, and forgets everything on
// restart. The Processing Logic component layers real job control, error
// handling (timeout, resource drain) and restart policies on top (§5.1).
//
// Routines exchange dynamic structures (string-keyed argument maps) rather
// than typed interfaces, mirroring how the PL avoids baking processing-
// environment specifics into its framework (§5.1).
package idl

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// State is a server's lifecycle state.
type State int32

// Server states.
const (
	Stopped State = iota
	Idle
	Busy
	Crashed
)

// String names the state.
func (s State) String() string {
	switch s {
	case Stopped:
		return "stopped"
	case Idle:
		return "idle"
	case Busy:
		return "busy"
	case Crashed:
		return "crashed"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// Errors reported by servers.
var (
	ErrStopped        = errors.New("idl: server not running")
	ErrCrashed        = errors.New("idl: interpreter crashed")
	ErrBusy           = errors.New("idl: interpreter busy (single-threaded)")
	ErrUnknownRoutine = errors.New("idl: unknown routine")
)

// Args is the dynamic structure exchanged with routines.
type Args map[string]interface{}

// Routine is one registered analysis procedure. It must honour ctx
// cancellation for the PL's timeout handling to work.
type Routine func(ctx context.Context, args Args) (Args, error)

// Stats counts server activity.
type Stats struct {
	Invocations int64
	Failures    int64
	Crashes     int64
	Restarts    int64
	// BusySeconds really is seconds: it accumulates time.Since(...).Seconds()
	// per invocation (unlike pl.Manager, which counts milliseconds
	// internally and converts once at the stats boundary).
	BusySeconds float64
}

// Server is one simulated interpreter.
type Server struct {
	id string

	mu       sync.Mutex
	state    State
	routines map[string]Routine

	// Fault plan, armed by tests and failure-injection benchmarks.
	crashNext int32        // atomic: crash on next invocation
	hangNext  atomic.Int64 // nanoseconds to hang on next invocation

	stats   Stats
	statsMu sync.Mutex
}

// NewServer creates a stopped interpreter with the given id.
func NewServer(id string) *Server {
	return &Server{id: id, state: Stopped, routines: make(map[string]Routine)}
}

// ID returns the server identifier.
func (s *Server) ID() string { return s.id }

// Register installs a routine (allowed in any state — on the real system
// this is the SSW tree on disk, not interpreter state).
func (s *Server) Register(name string, r Routine) {
	s.mu.Lock()
	s.routines[name] = r
	s.mu.Unlock()
}

// Start boots the interpreter.
func (s *Server) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case Stopped, Crashed:
		s.state = Idle
		return nil
	default:
		return fmt.Errorf("idl: start of %s server", s.state)
	}
}

// Stop halts an idle interpreter. Stopping a busy one fails — kill it with
// Restart instead, as the PL's resource-drain handling does.
func (s *Server) Stop() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == Busy {
		return ErrBusy
	}
	s.state = Stopped
	return nil
}

// Restart force-resets the interpreter from any state, losing whatever it
// was doing (an in-flight invocation returns ErrCrashed).
func (s *Server) Restart() {
	s.mu.Lock()
	s.state = Idle
	s.mu.Unlock()
	s.statsMu.Lock()
	s.stats.Restarts++
	s.statsMu.Unlock()
}

// InjectCrash makes the next invocation crash the interpreter.
func (s *Server) InjectCrash() { atomic.StoreInt32(&s.crashNext, 1) }

// InjectHang makes the next invocation stall for d before proceeding,
// simulating a wedged interpreter; the caller's context timeout is the only
// way out.
func (s *Server) InjectHang(d time.Duration) { s.hangNext.Store(int64(d)) }

// Invoke runs a routine synchronously. The interpreter is single-threaded:
// a second concurrent Invoke fails with ErrBusy rather than queueing —
// queueing is the PL manager's job.
func (s *Server) Invoke(ctx context.Context, name string, args Args) (Args, error) {
	s.mu.Lock()
	switch s.state {
	case Stopped:
		s.mu.Unlock()
		return nil, ErrStopped
	case Crashed:
		s.mu.Unlock()
		return nil, ErrCrashed
	case Busy:
		s.mu.Unlock()
		return nil, ErrBusy
	}
	routine, ok := s.routines[name]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrUnknownRoutine, name)
	}
	s.state = Busy
	s.mu.Unlock()

	start := time.Now()
	out, err := s.run(ctx, routine, args)
	elapsed := time.Since(start).Seconds()

	s.statsMu.Lock()
	s.stats.Invocations++
	s.stats.BusySeconds += elapsed
	if err != nil {
		s.stats.Failures++
		if errors.Is(err, ErrCrashed) {
			s.stats.Crashes++
		}
	}
	s.statsMu.Unlock()

	s.mu.Lock()
	if s.state == Busy { // not force-restarted meanwhile
		if errors.Is(err, ErrCrashed) {
			s.state = Crashed
		} else {
			s.state = Idle
		}
	}
	s.mu.Unlock()
	return out, err
}

func (s *Server) run(ctx context.Context, routine Routine, args Args) (Args, error) {
	if atomic.CompareAndSwapInt32(&s.crashNext, 1, 0) {
		return nil, ErrCrashed
	}
	if d := s.hangNext.Swap(0); d > 0 {
		select {
		case <-time.After(time.Duration(d)):
		case <-ctx.Done():
			return nil, fmt.Errorf("idl: hung interpreter: %w", ctx.Err())
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	type outcome struct {
		out Args
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- outcome{nil, fmt.Errorf("%w: routine panic: %v", ErrCrashed, r)}
			}
		}()
		out, err := routine(ctx, args)
		done <- outcome{out, err}
	}()
	select {
	case o := <-done:
		return o.out, o.err
	case <-ctx.Done():
		// The routine goroutine may still run; the interpreter is
		// considered wedged and needs a restart, exactly like a real
		// runaway IDL session.
		return nil, ctx.Err()
	}
}
