package pl

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/idl"
)

// Manager is the IDL server manager: it owns a set of interpreters on one
// processing node, hands invocations to idle ones, queues callers when all
// are busy, and implements the error handling the interpreters lack —
// per-invocation timeouts with forced restarts of wedged servers, and
// automatic restart of crashed ones (§5.1).
type Manager struct {
	id      string
	timeout time.Duration

	mu      sync.Mutex
	servers map[string]*idl.Server
	idle    chan *idl.Server

	invocations atomic.Int64
	timeouts    atomic.Int64
	recoveries  atomic.Int64
	// busyMillis accumulates interpreter-occupied wall time in
	// milliseconds (an int so it can live in an atomic); it is converted
	// to seconds exactly once, in Stats.
	busyMillis atomic.Int64
}

// ManagerStats summarizes a manager's activity.
type ManagerStats struct {
	ID          string
	Servers     int
	Invocations int64
	Timeouts    int64
	Recoveries  int64
	BusySeconds float64
}

// NewManager creates a manager with n started interpreters, each loaded
// with the given routines. timeout bounds a single invocation (0 = 5 min).
func NewManager(id string, n int, routines map[string]idl.Routine, timeout time.Duration) (*Manager, error) {
	if n < 1 {
		return nil, fmt.Errorf("pl: manager %s needs at least one server", id)
	}
	if timeout <= 0 {
		timeout = 5 * time.Minute
	}
	m := &Manager{
		id: id, timeout: timeout,
		servers: make(map[string]*idl.Server),
		idle:    make(chan *idl.Server, 1024),
	}
	for i := 0; i < n; i++ {
		if err := m.AddServer(fmt.Sprintf("%s/idl-%d", id, i), routines); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// ID returns the manager id.
func (m *Manager) ID() string { return m.id }

// AddServer boots a new interpreter and adds it to the pool. Managers can
// grow at run time without halting the system (§5.1).
func (m *Manager) AddServer(serverID string, routines map[string]idl.Routine) error {
	s := idl.NewServer()
	for name, r := range routines {
		s.Register(name, r)
	}
	if err := s.Start(); err != nil {
		return err
	}
	m.mu.Lock()
	if _, dup := m.servers[serverID]; dup {
		m.mu.Unlock()
		return fmt.Errorf("pl: duplicate server %s", serverID)
	}
	m.servers[serverID] = s
	m.mu.Unlock()
	m.idle <- s
	return nil
}

// RegisterRoutine installs a routine on every interpreter in the pool —
// how user-submitted analyses reach running servers (§3.3).
func (m *Manager) RegisterRoutine(name string, r idl.Routine) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, s := range m.servers {
		s.Register(name, r)
	}
}

// Servers returns the current pool size.
func (m *Manager) Servers() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.servers)
}

// ServerIDs lists the pool's interpreter ids, sorted.
func (m *Manager) ServerIDs() []string {
	m.mu.Lock()
	out := make([]string, 0, len(m.servers))
	for id := range m.servers {
		out = append(out, id)
	}
	m.mu.Unlock()
	sort.Strings(out)
	return out
}

// Server returns one interpreter by id (nil if unknown) — the seam fault
// harnesses use to wedge or crash a specific interpreter.
func (m *Manager) Server(id string) *idl.Server {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.servers[id]
}

// Stats returns a snapshot of the counters.
func (m *Manager) Stats() ManagerStats {
	return ManagerStats{
		ID:          m.id,
		Servers:     m.Servers(),
		Invocations: m.invocations.Load(),
		Timeouts:    m.timeouts.Load(),
		Recoveries:  m.recoveries.Load(),
		BusySeconds: float64(m.busyMillis.Load()) / 1e3,
	}
}

// Invoke runs a routine on the next idle interpreter, waiting in FIFO order
// if all are busy. Timeouts and crashes recover the interpreter before the
// error is returned, so the pool never leaks capacity.
func (m *Manager) Invoke(ctx context.Context, routine string, args idl.Args) (idl.Args, error) {
	var srv *idl.Server
	select {
	case srv = <-m.idle:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	m.invocations.Add(1)
	start := time.Now()
	callCtx, cancel := context.WithTimeout(ctx, m.timeout)
	out, err := srv.Invoke(callCtx, routine, args)
	cancel()
	m.busyMillis.Add(time.Since(start).Milliseconds())

	switch {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		// Wedged or abandoned interpreter: force-restart it (resource-drain
		// handling) before returning it to the pool.
		srv.Restart()
		m.timeouts.Add(1)
		m.recoveries.Add(1)
	case errors.Is(err, idl.ErrCrashed):
		srv.Restart()
		m.recoveries.Add(1)
	}
	m.idle <- srv
	return out, err
}
