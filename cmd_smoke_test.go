package hedc

// Smoke tests for the executables: build each command, drive the
// non-server ones end to end, and run hedc-server as the sharded cell it
// deploys, one process per role. Skipped in -short mode (they shell out
// to the Go toolchain).

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/dm"
	"repro/internal/schema"
)

func buildCmd(t *testing.T, name, binDir string) string {
	t.Helper()
	bin := filepath.Join(binDir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", name, err, out)
	}
	return bin
}

func TestCommandsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke tests skipped in short mode")
	}
	binDir := t.TempDir()
	dataDir := t.TempDir()

	// hedc-load ingests a synthetic day into a fresh repository.
	load := buildCmd(t, "hedc-load", binDir)
	out, err := exec.Command(load,
		"-data", dataDir, "-days", "1", "-day-length", "1200",
		"-background", "4", "-flares", "1", "-bursts", "0", "-saa=false",
		"-unit-seconds", "1200").CombinedOutput()
	if err != nil {
		t.Fatalf("hedc-load: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "catalog events") {
		t.Fatalf("hedc-load output:\n%s", out)
	}

	// A second invocation appends a day to the same store (persistence).
	out, err = exec.Command(load,
		"-data", dataDir, "-days", "1", "-first-day", "2", "-day-length", "1200",
		"-background", "4", "-flares", "1", "-bursts", "0", "-saa=false",
		"-unit-seconds", "1200").CombinedOutput()
	if err != nil {
		t.Fatalf("hedc-load day 2: %v\n%s", err, out)
	}

	// hedc-bench regenerates the deterministic tables instantly.
	bench := buildCmd(t, "hedc-bench", binDir)
	out, err = exec.Command(bench, "-exp", "table2").CombinedOutput()
	if err != nil {
		t.Fatalf("hedc-bench: %v\n%s", err, out)
	}
	for _, want := range []string{"Requests      100", "Queries       300", "Edits         200"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("hedc-bench table2 missing %q:\n%s", want, out)
		}
	}
	out, err = exec.Command(bench, "-exp", "table1").CombinedOutput()
	if err != nil {
		t.Fatalf("hedc-bench table1: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "S+C/2+1") {
		t.Fatalf("hedc-bench table1 output:\n%s", out)
	}

	server := buildCmd(t, "hedc-server", binDir)
	t.Run("ShardedCellProcesses", func(t *testing.T) { runShardedCell(t, server) })

	// The remaining commands at least build.
	buildCmd(t, "streamcorder", binDir)
}

// runShardedCell starts the deployed topology as separate processes on
// loopback: two shard databases (only shard 0 bootstrapped), two
// replicas that each route to both shards in process, and a gateway.
// It browses, checks that the gateway runs its default overload control,
// logs in and writes through the gateway, loses a replica to
// SIGKILL and keeps browsing, then stops the rest with SIGTERM, each of
// which must exit 0.
func runShardedCell(t *testing.T, server string) {
	db0 := startChild(t, server, "db0", "-mode", "db", "-addr", "127.0.0.1:0",
		"-data", t.TempDir(), "-bootstrap-password", "secret")
	db1 := startChild(t, server, "db1", "-mode", "db", "-addr", "127.0.0.1:0", "-data", t.TempDir())
	shards := db0.await(t, "serving dbnet on ") + "," + db1.await(t, "serving dbnet on ")

	reps := []*child{
		startChild(t, server, "r1", "-mode", "replica", "-addr", "127.0.0.1:0", "-db-addr", shards, "-node", "r1"),
		startChild(t, server, "r2", "-mode", "replica", "-addr", "127.0.0.1:0", "-db-addr", shards, "-node", "r2"),
	}
	var urls []string
	for _, r := range reps {
		urls = append(urls, "http://"+r.await(t, "serving on "))
	}

	gw := startChild(t, server, "gw", "-mode", "gateway", "-addr", "127.0.0.1:0",
		"-replicas", urls[0]+"/dm/,"+urls[1]+"/dm/")
	base := "http://" + gw.await(t, "serving on ")

	get := func(url string) string {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d\n%s", url, resp.StatusCode, body)
		}
		return string(body)
	}
	// browse reads the catalog index and a scatter-gathered browse page.
	browse := func() {
		t.Helper()
		if body := get(base + "/"); !strings.Contains(body, "cat-standard") {
			t.Fatalf("catalog index lacks the standard catalog:\n%s", body)
		}
		get(base + "/browse")
	}
	browse()
	// The gateway runs overload control by default: the AIMD limiter
	// admits every request, and the degrade switch is off at this load.
	stats := get(base + "/stats")
	for _, want := range []string{
		"adaptive (latency-gradient AIMD)",
		`degrade switch</td><td style="text-align:right">off<`,
	} {
		if !strings.Contains(stats, want) {
			t.Fatalf("gateway /stats lacks %q:\n%s", want, stats)
		}
	}

	api := dm.NewRemote(base+"/dm/", nil)
	const ip = "10.7.0.1"
	si, err := api.Authenticate(dm.ImportUser, "secret", ip, dm.SessionHLE)
	if err != nil {
		t.Fatalf("login over /dm/: %v", err)
	}
	id, err := api.CreateHLE(si.Token, ip, &schema.HLE{
		KindHint: "flare", Day: 1, TStart: 1000, TStop: 1001, Version: 1, CalibVersion: 1,
	})
	if err != nil {
		t.Fatalf("create HLE: %v", err)
	}
	if h, err := api.GetHLE(si.Token, ip, id); err != nil || h.ID != id {
		t.Fatalf("read back %s: %+v, %v", id, h, err)
	}

	// Kill the replica that has served the most, so the survivor must
	// take over its traffic.
	served := func(i int) int {
		var h struct{ Served int }
		if err := json.Unmarshal([]byte(get(urls[i]+"/healthz")), &h); err != nil {
			t.Fatal(err)
		}
		return h.Served
	}
	victim := 0
	if served(1) > served(0) {
		victim = 1
	}
	survivor := 1 - victim
	before := served(survivor)
	reps[victim].kill(t)
	for i := 0; i < 5; i++ {
		browse()
	}
	if served(survivor) <= before {
		t.Fatalf("replica %s served nothing after %s died", reps[survivor].name, reps[victim].name)
	}

	for _, c := range []*child{gw, reps[survivor], db1, db0} {
		c.stop(t)
	}
}

// child is one hedc-server process. Its stdout lines arrive on lines,
// closed when the process closes stdout; done closes once it has exited,
// with Wait's result in err.
type child struct {
	name   string
	cmd    *exec.Cmd
	lines  chan string
	done   chan struct{}
	err    error
	stderr string
}

// startChild starts bin with args. A cleanup kills it, so no process
// outlives the test, whether it passed or failed.
func startChild(t *testing.T, bin, name string, args ...string) *child {
	t.Helper()
	c := &child{name: name, lines: make(chan string, 64), done: make(chan struct{}),
		stderr: filepath.Join(t.TempDir(), name+".log")}
	logf, err := os.Create(c.stderr)
	if err != nil {
		t.Fatal(err)
	}
	defer logf.Close()
	c.cmd = exec.Command(bin, args...)
	c.cmd.Stderr = logf
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", name, err)
	}
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			select {
			case c.lines <- sc.Text():
			default: // nobody waits for more than the first lines
			}
		}
		close(c.lines)
		c.err = c.cmd.Wait()
		close(c.done)
	}()
	t.Cleanup(func() {
		c.cmd.Process.Kill()
		<-c.done
	})
	return c
}

// await returns the first word after marker on the child's stdout.
func (c *child) await(t *testing.T, marker string) string {
	t.Helper()
	timeout := time.After(time.Minute)
	for {
		select {
		case line, ok := <-c.lines:
			if !ok {
				<-c.done
				t.Fatalf("%s exited (%v) before printing %q\n%s", c.name, c.err, marker, c.log())
			}
			if i := strings.Index(line, marker); i >= 0 {
				if f := strings.Fields(line[i+len(marker):]); len(f) > 0 {
					return f[0]
				}
			}
		case <-timeout:
			t.Fatalf("%s printed no %q within a minute\n%s", c.name, marker, c.log())
		}
	}
}

// kill SIGKILLs the child and waits for it to die.
func (c *child) kill(t *testing.T) {
	t.Helper()
	if err := c.cmd.Process.Kill(); err != nil {
		t.Fatalf("kill %s: %v", c.name, err)
	}
	<-c.done
}

// stop SIGTERMs the child, which must drain and exit with status 0.
func (c *child) stop(t *testing.T) {
	t.Helper()
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM %s: %v", c.name, err)
	}
	select {
	case <-c.done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s still running 30s after SIGTERM\n%s", c.name, c.log())
	}
	if c.err != nil {
		t.Fatalf("%s exited after SIGTERM with %v\n%s", c.name, c.err, c.log())
	}
}

// log returns what the child wrote to stderr.
func (c *child) log() string {
	b, _ := os.ReadFile(c.stderr)
	return string(b)
}
