package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestKernelEventOrder(t *testing.T) {
	k := NewKernel()
	var order []int
	k.At(3, func() { order = append(order, 3) })
	k.At(1, func() { order = append(order, 1) })
	k.At(2, func() { order = append(order, 2) })
	end := k.Run()
	if end != 3 {
		t.Fatalf("final time = %v, want 3", end)
	}
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestKernelTieBreakFIFO(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(5, func() { order = append(order, i) })
	}
	k.Run()
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("same-time events ran out of order: %v", order)
		}
	}
}

func TestKernelSchedulePastPanics(t *testing.T) {
	k := NewKernel()
	k.At(10, func() {})
	k.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	k.At(5, func() {})
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel()
	ran := 0
	k.At(1, func() { ran++ })
	k.At(10, func() { ran++ })
	k.RunUntil(5)
	if ran != 1 {
		t.Fatalf("ran = %d, want 1", ran)
	}
	if k.Now() != 5 {
		t.Fatalf("clock = %v, want 5", k.Now())
	}
	if len(k.events) != 1 {
		t.Fatalf("pending = %d, want 1", len(k.events))
	}
	k.Run()
	if ran != 2 || k.Now() != 10 {
		t.Fatalf("after Run: ran=%d now=%v", ran, k.Now())
	}
}

func TestProcSleepAdvancesVirtualTime(t *testing.T) {
	k := NewKernel()
	var woke float64
	k.Go(func(p *Proc) {
		p.Sleep(42)
		woke = p.Now()
	})
	k.Run()
	if woke != 42 {
		t.Fatalf("woke at %v, want 42", woke)
	}
	if k.procs != 0 {
		t.Fatalf("leaked %d processes", k.procs)
	}
}

func TestProcInterleaving(t *testing.T) {
	k := NewKernel()
	var trace []string
	k.Go(func(p *Proc) {
		trace = append(trace, "a0")
		p.Sleep(2)
		trace = append(trace, "a2")
	})
	k.Go(func(p *Proc) {
		trace = append(trace, "b0")
		p.Sleep(1)
		trace = append(trace, "b1")
		p.Sleep(2)
		trace = append(trace, "b3")
	})
	k.Run()
	want := []string{"a0", "b0", "b1", "a2", "b3"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestProcSpawn(t *testing.T) {
	k := NewKernel()
	done := 0
	k.Go(func(p *Proc) {
		p.Sleep(1)
		for i := 0; i < 5; i++ {
			k.Go(func(c *Proc) {
				c.Sleep(3)
				done++
			})
		}
	})
	end := k.Run()
	if done != 5 {
		t.Fatalf("done = %d, want 5", done)
	}
	if end != 4 {
		t.Fatalf("end = %v, want 4", end)
	}
}

func TestCPUSingleJob(t *testing.T) {
	k := NewKernel()
	cpu := NewCPU(k, 2, Thrash{})
	var took float64
	k.Go(func(p *Proc) {
		start := p.Now()
		cpu.Use(p, 10, "usr")
		took = p.Now() - start
	})
	k.Run()
	// One job on a 2-core CPU still runs at 1 core: 10 core-seconds = 10s.
	if !almost(took, 10, 1e-9) {
		t.Fatalf("single job took %v, want 10", took)
	}
}

func TestCPUProcessorSharing(t *testing.T) {
	k := NewKernel()
	cpu := NewCPU(k, 1, Thrash{})
	ends := make([]float64, 2)
	for i := 0; i < 2; i++ {
		i := i
		k.Go(func(p *Proc) {
			cpu.Use(p, 10, "usr")
			ends[i] = p.Now()
		})
	}
	k.Run()
	// Two equal jobs sharing 1 core finish together at 20s.
	for i, e := range ends {
		if !almost(e, 20, 1e-9) {
			t.Fatalf("job %d ended at %v, want 20", i, e)
		}
	}
}

func TestCPUTwoCoresRunTwoJobsFullSpeed(t *testing.T) {
	k := NewKernel()
	cpu := NewCPU(k, 2, Thrash{})
	ends := make([]float64, 2)
	for i := 0; i < 2; i++ {
		i := i
		k.Go(func(p *Proc) {
			cpu.Use(p, 10, "usr")
			ends[i] = p.Now()
		})
	}
	k.Run()
	for i, e := range ends {
		if !almost(e, 10, 1e-9) {
			t.Fatalf("job %d ended at %v, want 10", i, e)
		}
	}
}

func TestCPULateArrivalSlowsEarlierJob(t *testing.T) {
	k := NewKernel()
	cpu := NewCPU(k, 1, Thrash{})
	var endA, endB float64
	k.Go(func(p *Proc) {
		cpu.Use(p, 10, "usr")
		endA = p.Now()
	})
	k.Go(func(p *Proc) {
		p.Sleep(5)
		cpu.Use(p, 10, "usr")
		endB = p.Now()
	})
	k.Run()
	// A runs alone 0..5 (5 done), then shares: remaining 5 at rate 1/2 -> +10 => 15.
	if !almost(endA, 15, 1e-9) {
		t.Fatalf("endA = %v, want 15", endA)
	}
	// B: shares 5..15 (5 done), then alone: remaining 5 -> ends 20.
	if !almost(endB, 20, 1e-9) {
		t.Fatalf("endB = %v, want 20", endB)
	}
}

func TestCPUThrashingDegradesCapacity(t *testing.T) {
	k := NewKernel()
	thrash := Thrash{Threshold: 2, Factor: 0.5}
	cpu := NewCPU(k, 1, thrash)
	const jobs = 4
	var end float64
	for i := 0; i < jobs; i++ {
		k.Go(func(p *Proc) {
			cpu.Use(p, 1, "usr")
			end = p.Now()
		})
	}
	k.Run()
	// 4 jobs, threshold 2, factor .5: multiplier = 1/(1+0.5*2) = 0.5.
	// Total work 4 core-s at 0.5 cores effective => 8s.
	if !almost(end, 8, 1e-9) {
		t.Fatalf("end = %v, want 8", end)
	}
}

func TestCPUUtilizationAccounting(t *testing.T) {
	k := NewKernel()
	cpu := NewCPU(k, 2, Thrash{})
	k.Go(func(p *Proc) { cpu.Use(p, 10, "usr") })
	k.Go(func(p *Proc) { cpu.Use(p, 5, "sys") })
	k.Run()
	if !almost(cpu.BusySeconds("usr"), 10, 1e-9) {
		t.Fatalf("usr busy = %v, want 10", cpu.BusySeconds("usr"))
	}
	if !almost(cpu.BusySeconds("sys"), 5, 1e-9) {
		t.Fatalf("sys busy = %v, want 5", cpu.BusySeconds("sys"))
	}
	if !almost(cpu.BusySeconds(""), 15, 1e-9) {
		t.Fatalf("total busy = %v, want 15", cpu.BusySeconds(""))
	}
	// Clock ends at 10; utilization = 15 / (10*2) = 0.75.
	if !almost(cpu.Utilization(""), 0.75, 1e-9) {
		t.Fatalf("utilization = %v, want 0.75", cpu.Utilization(""))
	}
}

func TestResourceFIFOAndCapacity(t *testing.T) {
	k := NewKernel()
	res := NewResource(k, 2)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		k.Go(func(p *Proc) {
			res.Acquire(p)
			order = append(order, i)
			p.Sleep(10)
			res.Release()
		})
	}
	k.Run()
	for i := 0; i < 5; i++ {
		if order[i] != i {
			t.Fatalf("grant order = %v, want FIFO", order)
		}
	}
	if res.inUse != 0 {
		t.Fatalf("in use after run = %d", res.inUse)
	}
	// 5 jobs, capacity 2, 10s each: last finishes at 30.
	if k.Now() != 30 {
		t.Fatalf("end = %v, want 30", k.Now())
	}
}

func TestResourceReleaseIdlePanics(t *testing.T) {
	k := NewKernel()
	res := NewResource(k, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("releasing an idle resource did not panic")
		}
	}()
	res.Release()
}

func TestLinkTransferTime(t *testing.T) {
	k := NewKernel()
	link := NewLink(k, 0.1, 2e6) // 2 MB/s, 100ms latency
	var took float64
	k.Go(func(p *Proc) {
		start := p.Now()
		link.Transfer(p, 800_000) // 800 KB
		took = p.Now() - start
	})
	k.Run()
	if !almost(took, 0.5, 1e-9) { // 0.1 + 0.4
		t.Fatalf("transfer took %v, want 0.5", took)
	}
}

func TestLinkSerializesTransfers(t *testing.T) {
	k := NewKernel()
	link := NewLink(k, 0, 1e6)
	for i := 0; i < 3; i++ {
		k.Go(func(p *Proc) { link.Transfer(p, 1e6) })
	}
	k.Run()
	if k.Now() != 3 {
		t.Fatalf("end = %v, want 3 (serialized)", k.Now())
	}
}

func TestTally(t *testing.T) {
	var ta Tally
	for _, x := range []float64{1, 2, 3, 4} {
		ta.Add(x)
	}
	if ta.Mean() != 2.5 {
		t.Fatalf("mean = %v, want 2.5", ta.Mean())
	}
}

func TestThrashMultiplier(t *testing.T) {
	th := Thrash{Threshold: 16, Factor: 0.1}
	if th.Multiplier(10) != 1 || th.Multiplier(16) != 1 {
		t.Fatal("below threshold must not degrade")
	}
	if m := th.Multiplier(26); !almost(m, 0.5, 1e-9) {
		t.Fatalf("multiplier(26) = %v, want 0.5", m)
	}
	if (Thrash{}).Multiplier(1000) != 1 {
		t.Fatal("zero thrash must be identity")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		k := NewKernel()
		cpu := NewCPU(k, 2, Thrash{Threshold: 4, Factor: 0.2})
		res := NewResource(k, 3)
		var ends []float64
		for i := 0; i < 20; i++ {
			i := i
			k.Go(func(p *Proc) {
				p.Sleep(float64(i%7) * 0.1)
				res.Acquire(p)
				cpu.Use(p, 1+float64(i%3), "usr")
				res.Release()
				ends = append(ends, p.Now())
			})
		}
		k.Run()
		return ends
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic: run1[%d]=%v run2[%d]=%v", i, a[i], i, b[i])
		}
	}
}

// Property: processor sharing conserves work — for any arrival pattern and
// demands, total busy core-seconds equal total demand, and every job
// finishes no earlier than its solo runtime.
func TestQuickProcessorSharingConservesWork(t *testing.T) {
	type job struct {
		Delay  uint8
		Demand uint8
	}
	check := func(jobs []job, coresRaw uint8) bool {
		if len(jobs) == 0 {
			return true
		}
		if len(jobs) > 32 {
			jobs = jobs[:32]
		}
		cores := float64(coresRaw%4) + 1
		k := NewKernel()
		cpu := NewCPU(k, cores, Thrash{})
		var totalDemand float64
		ok := true
		for _, j := range jobs {
			delay := float64(j.Delay) / 16
			demand := float64(j.Demand)/32 + 0.05
			totalDemand += demand
			k.Go(func(p *Proc) {
				p.Sleep(delay)
				start := p.Now()
				cpu.Use(p, demand, "usr")
				if p.Now()-start < demand-1e-9 {
					ok = false // finished faster than physics allows
				}
			})
		}
		k.Run()
		if !ok {
			return false
		}
		return math.Abs(cpu.BusySeconds("")-totalDemand) < 1e-6
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
