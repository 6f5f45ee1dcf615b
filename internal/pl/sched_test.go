package pl

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/idl"
)

// orderRoutines records routine execution order by the "id" argument.
func orderRoutines(order *[]string, mu *sync.Mutex) map[string]idl.Routine {
	r := sleepRoutines()
	r["record"] = func(ctx context.Context, args idl.Args) (idl.Args, error) {
		d, _ := args["d"].(time.Duration)
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		mu.Lock()
		*order = append(*order, args["id"].(string))
		mu.Unlock()
		return idl.Args{"id": args["id"]}, nil
	}
	return r
}

func TestSchedulerWorkStealing(t *testing.T) {
	dir := NewDirectory()
	a, _ := NewManager("mgr-a", 1, sleepRoutines(), time.Second)
	dir.RegisterManager(a, "server")
	s := NewScheduler(dir, HedgeConfig{}) // no hedging; isolate stealing

	// Load manager A's deque deep while its single interpreter is busy.
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Exec(context.Background(), TaskSpec{
				Routine: "sleep", Args: idl.Args{"d": 20 * time.Millisecond},
			}); err != nil {
				t.Error(err)
			}
		}()
	}
	time.Sleep(10 * time.Millisecond) // let the queue build on A

	// A second manager appears; it must steal A's backlog rather than idle.
	b, _ := NewManager("mgr-b", 1, sleepRoutines(), time.Second)
	dir.RegisterManager(b, "server")
	if _, err := s.Exec(context.Background(), TaskSpec{
		Routine: "sleep", Args: idl.Args{"d": time.Millisecond},
	}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	st := s.Stats()
	if st.Steals == 0 {
		t.Fatalf("no steals recorded: %+v", st)
	}
	if b.Stats().Invocations == 0 {
		t.Fatalf("late manager ran nothing: A=%d B=%d",
			a.Stats().Invocations, b.Stats().Invocations)
	}
	if st.Completed != n+1 {
		t.Fatalf("completed = %d, want %d", st.Completed, n+1)
	}
}

func TestSchedulerPreemptionOrder(t *testing.T) {
	var order []string
	var mu sync.Mutex
	dir := NewDirectory()
	m, _ := NewManager("mgr-0", 1, orderRoutines(&order, &mu), time.Second)
	dir.RegisterManager(m, "server")
	s := NewScheduler(dir, HedgeConfig{})

	run := func(id string, tier Tier) chan error {
		ch := make(chan error, 1)
		go func() {
			_, err := s.Exec(context.Background(), TaskSpec{
				Routine: "record", Args: idl.Args{"id": id, "d": 15 * time.Millisecond},
				Tier: tier,
			})
			ch <- err
		}()
		return ch
	}
	first := run("first", TierBulk)
	time.Sleep(5 * time.Millisecond) // occupies the only interpreter
	b1 := run("bulk-1", TierBulk)
	b2 := run("bulk-2", TierBulk)
	time.Sleep(2 * time.Millisecond)
	i1 := run("int-1", TierInteractive) // queued last, must run next
	for _, ch := range []chan error{first, b1, b2, i1} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 4 || order[0] != "first" || order[1] != "int-1" {
		t.Fatalf("execution order = %v", order)
	}
	if st := s.Stats(); st.Preemptions == 0 {
		t.Fatalf("no preemption counted: %+v", st)
	}
}

func TestSchedulerNoPreemptionKeepsFIFO(t *testing.T) {
	var order []string
	var mu sync.Mutex
	dir := NewDirectory()
	m, _ := NewManager("mgr-0", 1, orderRoutines(&order, &mu), time.Second)
	dir.RegisterManager(m, "server")
	s := NewScheduler(dir, HedgeConfig{})
	s.SetPreemption(false)

	run := func(id string, tier Tier) chan error {
		ch := make(chan error, 1)
		go func() {
			_, err := s.Exec(context.Background(), TaskSpec{
				Routine: "record", Args: idl.Args{"id": id, "d": 10 * time.Millisecond},
				Tier: tier,
			})
			ch <- err
		}()
		return ch
	}
	first := run("first", TierBulk)
	time.Sleep(5 * time.Millisecond)
	b1 := run("bulk-1", TierBulk)
	time.Sleep(2 * time.Millisecond)
	i1 := run("int-1", TierInteractive)
	for _, ch := range []chan error{first, b1, i1} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	// Baseline: submission order, no tier jump.
	if len(order) != 3 || order[1] != "bulk-1" || order[2] != "int-1" {
		t.Fatalf("execution order = %v", order)
	}
}

func TestSchedulerHedgeBeatsWedgedServer(t *testing.T) {
	dir := NewDirectory()
	m, _ := NewManager("mgr-0", 2, sleepRoutines(), 30*time.Second)
	dir.RegisterManager(m, "server")
	s := NewScheduler(dir, HedgeConfig{Enabled: true, Multiplier: 4, Min: 20 * time.Millisecond})

	// Wedge the interpreter the next invocation will land on.
	ids := m.ServerIDs()
	if len(ids) != 2 {
		t.Fatalf("server ids = %v", ids)
	}
	m.Server(ids[0]).InjectHang(5 * time.Second)

	start := time.Now()
	out, err := s.Exec(context.Background(), TaskSpec{
		Routine: "sleep", Args: idl.Args{"d": time.Millisecond}, EstimateSecs: 0.001,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out["slept"] != time.Millisecond {
		t.Fatalf("out = %v", out)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("hedge did not bound the wedged call: %v", elapsed)
	}
	st := s.Stats()
	if st.HedgesLaunched == 0 || st.HedgesWon == 0 {
		t.Fatalf("hedge stats = %+v", st)
	}
	// The canceled primary force-restarted the wedged interpreter.
	deadline := time.Now().Add(2 * time.Second)
	for m.Stats().Recoveries == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if m.Stats().Recoveries == 0 {
		t.Fatalf("wedged interpreter not recovered: %+v", m.Stats())
	}
}

func TestSchedulerHedgeLostCountsPrimaryWin(t *testing.T) {
	dir := NewDirectory()
	m, _ := NewManager("mgr-0", 2, sleepRoutines(), time.Second)
	dir.RegisterManager(m, "server")
	// Hedge fires at 10ms; the primary needs 40ms and wins anyway because
	// the hedge runs the same routine with the same duration but starts
	// later.
	s := NewScheduler(dir, HedgeConfig{Enabled: true, Multiplier: 1, Min: 10 * time.Millisecond})
	if _, err := s.Exec(context.Background(), TaskSpec{
		Routine: "sleep", Args: idl.Args{"d": 40 * time.Millisecond},
	}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.HedgesLaunched != 1 || st.HedgesLost != 1 || st.HedgesWon != 0 {
		t.Fatalf("hedge stats = %+v", st)
	}
}

func TestSchedulerErrorFailsFastWithoutHedge(t *testing.T) {
	dir := NewDirectory()
	m, _ := NewManager("mgr-0", 1, sleepRoutines(), time.Second)
	dir.RegisterManager(m, "server")
	s := NewScheduler(dir, DefaultHedgeConfig())
	start := time.Now()
	_, err := s.Exec(context.Background(), TaskSpec{Routine: "boom"})
	if !errors.Is(err, idl.ErrCrashed) {
		t.Fatalf("err = %v", err)
	}
	// A crash must not wait out the hedge deadline: the timer is disarmed.
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Fatalf("error waited for hedge deadline: %v", elapsed)
	}
	if st := s.Stats(); st.HedgesLaunched != 0 {
		t.Fatalf("hedge launched for a failed task: %+v", st)
	}
	_ = m
}

func TestSchedulerCancelQueuedTask(t *testing.T) {
	dir := NewDirectory()
	m, _ := NewManager("mgr-0", 1, sleepRoutines(), time.Second)
	dir.RegisterManager(m, "server")
	s := NewScheduler(dir, HedgeConfig{})

	block := make(chan error, 1)
	go func() {
		_, err := s.Exec(context.Background(), TaskSpec{
			Routine: "sleep", Args: idl.Args{"d": 50 * time.Millisecond}})
		block <- err
	}()
	time.Sleep(10 * time.Millisecond)

	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan error, 1)
	go func() {
		_, err := s.Exec(ctx, TaskSpec{Routine: "sleep", Args: idl.Args{"d": time.Second}})
		queued <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	if err := <-queued; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued cancel err = %v", err)
	}
	if err := <-block; err != nil {
		t.Fatal(err)
	}
	// The canceled task never reached an interpreter.
	if inv := m.Stats().Invocations; inv != 1 {
		t.Fatalf("invocations = %d", inv)
	}
}

func TestSchedulerCloseFailsQueued(t *testing.T) {
	dir := NewDirectory()
	m, _ := NewManager("mgr-0", 1, sleepRoutines(), time.Second)
	dir.RegisterManager(m, "server")
	s := NewScheduler(dir, HedgeConfig{})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Exec(context.Background(), TaskSpec{
				Routine: "sleep", Args: idl.Args{"d": 30 * time.Millisecond}})
			errs <- err
		}()
	}
	time.Sleep(10 * time.Millisecond)
	s.Close()
	wg.Wait()
	close(errs)
	shutdown := 0
	for err := range errs {
		if errors.Is(err, ErrShutdown) {
			shutdown++
		} else if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if shutdown == 0 {
		t.Fatal("no queued task failed with ErrShutdown")
	}
	if err := s.Go(context.Background(), TaskSpec{Routine: "sleep"}, nil); !errors.Is(err, ErrShutdown) {
		t.Fatalf("post-close Go err = %v", err)
	}
	_ = m
}

// Satellite: Close must fail queued tickets with the typed shutdown error
// instead of leaving their Wait hanging.
func TestFrontendCloseFailsQueuedTickets(t *testing.T) {
	dir := NewDirectory()
	m, _ := NewManager("mgr-0", 1, sleepRoutines(), time.Second)
	dir.RegisterManager(m, "server")
	f := NewFrontend(dir, 1, 20)
	fs := &fakeStrategy{typ: "fake", delay: 50 * time.Millisecond}
	f.RegisterStrategy(fs)

	running, _ := f.Submit(&Request{ID: "running", Type: "fake"})
	time.Sleep(10 * time.Millisecond)
	var queued []*Ticket
	for i := 0; i < 3; i++ {
		tk, err := f.Submit(&Request{ID: "queued", Type: "fake"})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, tk)
	}
	f.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for _, tk := range queued {
		if _, err := tk.Wait(ctx); !errors.Is(err, ErrShutdown) {
			t.Fatalf("queued ticket err = %v", err)
		}
		if status, _ := tk.Status(); status != StatusFailed {
			t.Fatalf("queued ticket status = %s", status)
		}
	}
	// The running ticket resolves too (either way), and Wait cannot hang.
	if _, err := running.Wait(ctx); err != nil && !errors.Is(err, ErrShutdown) {
		t.Fatalf("running ticket err = %v", err)
	}
	if _, err := f.Submit(&Request{ID: "late", Type: "fake"}); !errors.Is(err, ErrShutdown) {
		t.Fatalf("post-close submit err = %v", err)
	}
}

// Satellite: concurrent Cancel vs worker pop on the same ticket must yield
// exactly one terminal status and exactly one admission release.
func TestFrontendCancelQueuedRace(t *testing.T) {
	dir := NewDirectory()
	m, _ := NewManager("mgr-0", 1, sleepRoutines(), time.Second)
	dir.RegisterManager(m, "server")
	f := NewFrontend(dir, 2, 20)
	fs := &fakeStrategy{typ: "fake", delay: time.Millisecond}
	f.RegisterStrategy(fs)
	_ = m

	terminal := map[string]bool{
		StatusCanceled: true, StatusCommitted: true,
		StatusFailed: true, StatusDelivered: true,
	}
	for i := 0; i < 60; i++ {
		blocker, _ := f.Submit(&Request{ID: "blocker", Type: "fake"})
		victim, err := f.Submit(&Request{ID: "victim", Type: "fake"})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			victim.Cancel() // races the worker popping it
		}()
		victim.Wait(context.Background())
		blocker.Wait(context.Background())
		wg.Wait()
		status, _ := victim.Status()
		if !terminal[status] {
			t.Fatalf("iteration %d: non-terminal status %q", i, status)
		}
		// A double release would drive InSystem negative; a missed one
		// would leave it positive and eventually jam admission.
		if st := f.Stats(); st.InSystem != 0 {
			t.Fatalf("iteration %d: in system = %d after drain", i, st.InSystem)
		}
	}
}

// Interactive admission never blocks behind bulk at the MaxInSystem gate:
// bulk stops short of the reserved slice.
func TestFrontendBulkReservedAdmission(t *testing.T) {
	dir := NewDirectory()
	m, _ := NewManager("mgr-0", 1, sleepRoutines(), time.Second)
	dir.RegisterManager(m, "server")
	f := NewFrontend(dir, 1, 4) // reserve = 1, bulk cap = 3
	fs := &fakeStrategy{typ: "fake", delay: 40 * time.Millisecond}
	f.RegisterStrategy(fs)
	_ = m

	var bulk []*Ticket
	for i := 0; i < 3; i++ {
		tk, err := f.Submit(&Request{ID: "bulk", Type: "fake", Tier: TierBulk})
		if err != nil {
			t.Fatal(err)
		}
		bulk = append(bulk, tk)
	}
	// Fourth bulk submit blocks on the reserve.
	fourth := make(chan *Ticket, 1)
	go func() {
		tk, _ := f.Submit(&Request{ID: "bulk-4", Type: "fake", Tier: TierBulk})
		fourth <- tk
	}()
	select {
	case <-fourth:
		t.Fatal("bulk occupied the reserved interactive slot")
	case <-time.After(15 * time.Millisecond):
	}
	// An interactive submit walks straight in.
	admitted := make(chan *Ticket, 1)
	go func() {
		tk, err := f.Submit(&Request{ID: "int", Type: "fake"})
		if err != nil {
			t.Error(err)
		}
		admitted <- tk
	}()
	var it *Ticket
	select {
	case it = <-admitted:
	case <-time.After(time.Second):
		t.Fatal("interactive submit blocked behind bulk")
	}
	for _, tk := range bulk {
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := it.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if tk := <-fourth; tk != nil {
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFrontendFarmStats(t *testing.T) {
	f, _ := newTestFrontend(t, 2, 20)
	tk, _ := f.Submit(&Request{ID: "r", Type: "fake"})
	if _, err := tk.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	fs := f.FarmStats()
	if fs.Frontend.Committed != 1 || fs.Sched.Completed != 1 || fs.Sched.Dispatched != 1 {
		t.Fatalf("farm stats = %+v", fs)
	}
	if len(fs.Managers) != 1 || fs.Managers[0].ID != "mgr-0" || fs.Managers[0].Invocations != 1 {
		t.Fatalf("manager stats = %+v", fs.Managers)
	}
}

func TestHedgeConfigDelayClamps(t *testing.T) {
	cfg := HedgeConfig{Enabled: true, Multiplier: 2, Min: 100 * time.Millisecond, Max: time.Second}
	if d := cfg.delay(0.001); d != 100*time.Millisecond {
		t.Fatalf("min clamp = %v", d)
	}
	if d := cfg.delay(10); d != time.Second {
		t.Fatalf("max clamp = %v", d)
	}
	if d := cfg.delay(0.25); d != 500*time.Millisecond {
		t.Fatalf("scaled delay = %v", d)
	}
	if d := (HedgeConfig{}).delay(10); d != 0 {
		t.Fatalf("disabled delay = %v", d)
	}
}
