package pl

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/idl"
)

func sleepRoutines() map[string]idl.Routine {
	return map[string]idl.Routine{
		"sleep": func(ctx context.Context, args idl.Args) (idl.Args, error) {
			d, _ := args["d"].(time.Duration)
			select {
			case <-time.After(d):
				return idl.Args{"slept": d}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
		"boom": func(ctx context.Context, args idl.Args) (idl.Args, error) {
			panic("segfault in SSW routine")
		},
		"hang": func(ctx context.Context, args idl.Args) (idl.Args, error) {
			<-make(chan struct{}) // never returns; ignores ctx like real IDL
			return nil, nil
		},
	}
}

func TestManagerInvoke(t *testing.T) {
	m, err := NewManager("mgr-0", 2, sleepRoutines(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.Invoke(context.Background(), "sleep", idl.Args{"d": time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if out["slept"] != time.Millisecond {
		t.Fatalf("out = %v", out)
	}
	st := m.Stats()
	if st.Invocations != 1 || st.Servers != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestManagerQueuesWhenBusy(t *testing.T) {
	m, _ := NewManager("mgr-0", 1, sleepRoutines(), time.Second)
	const n = 4
	var wg sync.WaitGroup
	var completed atomic.Int64
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := m.Invoke(context.Background(), "sleep", idl.Args{"d": 30 * time.Millisecond}); err != nil {
				t.Error(err)
				return
			}
			completed.Add(1)
		}()
	}
	wg.Wait()
	if completed.Load() != n {
		t.Fatalf("completed = %d", completed.Load())
	}
	// Serialized on one interpreter: at least n*30ms.
	if time.Since(start) < n*30*time.Millisecond {
		t.Fatal("calls did not serialize on the single interpreter")
	}
}

func TestManagerTimeoutRecoversServer(t *testing.T) {
	m, _ := NewManager("mgr-0", 1, sleepRoutines(), 20*time.Millisecond)
	if _, err := m.Invoke(context.Background(), "hang", nil); err == nil {
		t.Fatal("hung routine succeeded")
	}
	st := m.Stats()
	if st.Timeouts != 1 || st.Recoveries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// The pool recovered: the next call works.
	if _, err := m.Invoke(context.Background(), "sleep", idl.Args{"d": time.Millisecond}); err != nil {
		t.Fatalf("after recovery: %v", err)
	}
}

func TestManagerCrashRecovery(t *testing.T) {
	m, _ := NewManager("mgr-0", 1, sleepRoutines(), time.Second)
	if _, err := m.Invoke(context.Background(), "boom", nil); !errors.Is(err, idl.ErrCrashed) {
		t.Fatalf("err = %v", err)
	}
	if _, err := m.Invoke(context.Background(), "sleep", idl.Args{"d": time.Millisecond}); err != nil {
		t.Fatalf("after crash recovery: %v", err)
	}
	if st := m.Stats(); st.Recoveries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestManagerDynamicGrow(t *testing.T) {
	m, _ := NewManager("mgr-0", 1, sleepRoutines(), time.Second)
	if err := m.AddServer("mgr-0/extra", sleepRoutines()); err != nil {
		t.Fatal(err)
	}
	if m.Servers() != 2 {
		t.Fatalf("servers = %d", m.Servers())
	}
	if err := m.AddServer("mgr-0/extra", sleepRoutines()); err == nil {
		t.Fatal("duplicate server accepted")
	}
	// Still functional after growth.
	if _, err := m.Invoke(context.Background(), "sleep", idl.Args{"d": time.Millisecond}); err != nil {
		t.Fatal(err)
	}
}

func TestDirectoryRegistry(t *testing.T) {
	d := NewDirectory()
	m1, _ := NewManager("mgr-server", 1, nil, time.Second)
	m2, _ := NewManager("mgr-client", 1, nil, time.Second)
	if err := d.RegisterManager(m1, "server"); err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterManager(m2, "client"); err != nil {
		t.Fatal(err)
	}
	if err := d.RegisterManager(m1, "client"); err == nil {
		t.Fatal("duplicate manager id accepted")
	}
	got := d.Managers()
	if len(got) != 2 || got[0].ID != "mgr-client" || got[1].ID != "mgr-server" {
		t.Fatalf("managers = %v", got)
	}
	if got[0].Location != "client" || got[0].Manager() != m2 ||
		got[1].Location != "server" || got[1].Manager() != m1 {
		t.Fatalf("entries = %+v %+v", got[0], got[1])
	}
}

// fakeStrategy exercises the frontend without a DM.
type fakeStrategy struct {
	typ        string
	estimate   *Estimate
	estimateEr error
	commitErr  error
	executed   atomic.Int64
	order      *[]string
	orderMu    *sync.Mutex
	delay      time.Duration
}

func (f *fakeStrategy) Type() string { return f.typ }
func (f *fakeStrategy) Estimate(req *Request) (*Estimate, error) {
	if f.estimateEr != nil {
		return nil, f.estimateEr
	}
	if f.estimate != nil {
		return f.estimate, nil
	}
	return &Estimate{Feasible: true, Seconds: 0.01}, nil
}
func (f *fakeStrategy) Prepare(req *Request) (string, idl.Args, error) {
	return "sleep", idl.Args{"d": f.delay, "req": req.ID}, nil
}
func (f *fakeStrategy) Deliver(req *Request, out idl.Args) (*Delivery, error) {
	f.executed.Add(1)
	if f.order != nil {
		f.orderMu.Lock()
		*f.order = append(*f.order, req.ID)
		f.orderMu.Unlock()
	}
	return &Delivery{Result: out}, nil
}
func (f *fakeStrategy) Commit(req *Request, del *Delivery) (string, error) {
	if f.commitErr != nil {
		return "", f.commitErr
	}
	return "ana-" + req.ID, nil
}

func newTestFrontend(t *testing.T, workers, maxIn int) (*Frontend, *fakeStrategy) {
	t.Helper()
	dir := NewDirectory()
	m, err := NewManager("mgr-0", 2, sleepRoutines(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	dir.RegisterManager(m, "server")
	f := NewFrontend(dir, workers, maxIn)
	fs := &fakeStrategy{typ: "fake", delay: time.Millisecond}
	f.RegisterStrategy(fs)
	return f, fs
}

func TestFrontendLifecycle(t *testing.T) {
	f, fs := newTestFrontend(t, 2, 20)
	tk, err := f.Submit(&Request{ID: "r1", Type: "fake"})
	if err != nil {
		t.Fatal(err)
	}
	id, err := tk.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if id != "ana-r1" {
		t.Fatalf("id = %q", id)
	}
	status, phase := tk.Status()
	if status != StatusCommitted || phase != PhaseCommit {
		t.Fatalf("status=%s phase=%s", status, phase)
	}
	if fs.executed.Load() != 1 {
		t.Fatalf("executed = %d", fs.executed.Load())
	}
	st := f.Stats()
	if st.Submitted != 1 || st.Committed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFrontendUnknownType(t *testing.T) {
	f, _ := newTestFrontend(t, 1, 20)
	if _, err := f.Submit(&Request{Type: "nope"}); err == nil {
		t.Fatal("unknown type accepted")
	}
}

func TestFrontendInfeasibleRejected(t *testing.T) {
	f, _ := newTestFrontend(t, 1, 20)
	f.RegisterStrategy(&fakeStrategy{
		typ:      "dry",
		estimate: &Estimate{Feasible: false, Reason: "no data"},
	})
	if _, err := f.Submit(&Request{Type: "dry"}); err == nil {
		t.Fatal("infeasible request accepted")
	}
	// The admission slot was released.
	if st := f.Stats(); st.InSystem != 0 {
		t.Fatalf("in system = %d", st.InSystem)
	}
}

func TestFrontendPriorityScheduling(t *testing.T) {
	// One worker, slow first job, then queue low and high priority: high
	// must run before low.
	dir := NewDirectory()
	m, _ := NewManager("mgr-0", 1, sleepRoutines(), time.Second)
	dir.RegisterManager(m, "server")
	f := NewFrontend(dir, 1, 20)
	var order []string
	var mu sync.Mutex
	fs := &fakeStrategy{typ: "fake", delay: 20 * time.Millisecond, order: &order, orderMu: &mu}
	f.RegisterStrategy(fs)

	first, _ := f.Submit(&Request{ID: "first", Type: "fake", Priority: 0})
	time.Sleep(5 * time.Millisecond) // let it start
	low, _ := f.Submit(&Request{ID: "low", Type: "fake", Priority: 1})
	high, _ := f.Submit(&Request{ID: "high", Type: "fake", Priority: 9})
	for _, tk := range []*Ticket{first, low, high} {
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 || order[1] != "high" || order[2] != "low" {
		t.Fatalf("execution order = %v", order)
	}
}

func TestFrontendAdmissionLimit(t *testing.T) {
	dir := NewDirectory()
	m, _ := NewManager("mgr-0", 1, sleepRoutines(), time.Second)
	dir.RegisterManager(m, "server")
	f := NewFrontend(dir, 1, 2)
	fs := &fakeStrategy{typ: "fake", delay: 30 * time.Millisecond}
	f.RegisterStrategy(fs)

	t1, _ := f.Submit(&Request{ID: "a", Type: "fake"})
	t2, _ := f.Submit(&Request{ID: "b", Type: "fake"})
	// Third submission must block until a slot frees.
	submitted := make(chan *Ticket)
	go func() {
		tk, _ := f.Submit(&Request{ID: "c", Type: "fake"})
		submitted <- tk
	}()
	select {
	case <-submitted:
		t.Fatal("third request admitted beyond the limit")
	case <-time.After(10 * time.Millisecond):
	}
	t1.Wait(context.Background())
	t2.Wait(context.Background())
	tk := <-submitted
	if _, err := tk.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestFrontendCancelQueued(t *testing.T) {
	dir := NewDirectory()
	m, _ := NewManager("mgr-0", 1, sleepRoutines(), time.Second)
	dir.RegisterManager(m, "server")
	f := NewFrontend(dir, 1, 20)
	fs := &fakeStrategy{typ: "fake", delay: 50 * time.Millisecond}
	f.RegisterStrategy(fs)

	running, _ := f.Submit(&Request{ID: "running", Type: "fake"})
	time.Sleep(5 * time.Millisecond)
	queued, _ := f.Submit(&Request{ID: "queued", Type: "fake"})
	queued.Cancel()
	if _, err := queued.Wait(context.Background()); err == nil {
		t.Fatal("canceled request committed")
	}
	if status, _ := queued.Status(); status != StatusCanceled {
		t.Fatalf("status = %s", status)
	}
	if _, err := running.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The canceled request never executed.
	if fs.executed.Load() != 1 {
		t.Fatalf("executed = %d", fs.executed.Load())
	}
	if st := f.Stats(); st.Canceled != 1 || st.InSystem != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFrontendCancelRunning(t *testing.T) {
	f, fs := newTestFrontend(t, 1, 20)
	fs.delay = 200 * time.Millisecond
	tk, _ := f.Submit(&Request{ID: "r", Type: "fake"})
	time.Sleep(10 * time.Millisecond) // let execution start
	tk.Cancel()
	if _, err := tk.Wait(context.Background()); err == nil {
		t.Fatal("canceled running request succeeded")
	}
	status, _ := tk.Status()
	if status != StatusCanceled {
		t.Fatalf("status = %s", status)
	}
}

func TestFrontendNoCommit(t *testing.T) {
	f, _ := newTestFrontend(t, 1, 20)
	tk, _ := f.Submit(&Request{ID: "preview", Type: "fake", NoCommit: true})
	id, err := tk.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if id != "" {
		t.Fatalf("preview committed entity %q", id)
	}
	status, _ := tk.Status()
	if status != StatusDelivered {
		t.Fatalf("status = %s", status)
	}
	if tk.Delivery() == nil {
		t.Fatal("no delivery")
	}
}

func TestFrontendCommitFailure(t *testing.T) {
	f, fs := newTestFrontend(t, 1, 20)
	fs.commitErr = errors.New("dm unavailable")
	tk, _ := f.Submit(&Request{ID: "r", Type: "fake"})
	if _, err := tk.Wait(context.Background()); err == nil {
		t.Fatal("commit failure swallowed")
	}
	if st := f.Stats(); st.Failed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFrontendNoCapacity(t *testing.T) {
	dir := NewDirectory() // no managers at all
	f := NewFrontend(dir, 1, 20)
	f.RegisterStrategy(&fakeStrategy{typ: "fake"})
	tk, _ := f.Submit(&Request{ID: "r", Type: "fake"})
	if _, err := tk.Wait(context.Background()); err == nil {
		t.Fatal("request without capacity succeeded")
	}
}

func TestFrontendLocationRouting(t *testing.T) {
	dir := NewDirectory()
	server, _ := NewManager("mgr-server", 1, sleepRoutines(), time.Second)
	client, _ := NewManager("mgr-client", 1, sleepRoutines(), time.Second)
	dir.RegisterManager(server, "server")
	dir.RegisterManager(client, "client")
	f := NewFrontend(dir, 2, 20)
	f.RegisterStrategy(&fakeStrategy{typ: "fake", delay: time.Millisecond})

	tk, _ := f.Submit(&Request{ID: "r", Type: "fake", Location: "client"})
	if _, err := tk.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if client.Stats().Invocations != 1 || server.Stats().Invocations != 0 {
		t.Fatalf("routing wrong: client=%d server=%d",
			client.Stats().Invocations, server.Stats().Invocations)
	}
}
