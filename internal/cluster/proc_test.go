package cluster

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/dbnet"
	"repro/internal/dm"
	"repro/internal/minidb"
	"repro/internal/schema"
)

// TestProcReplicaLifecycle runs a replica as a real child process — the
// hedc-server binary in replica mode — against an in-test networked
// database, routes a call through a gateway to it, and shuts it down
// gracefully. This is the out-of-process half of the replica lifecycle;
// the in-process half is covered by the other cluster tests.
func TestProcReplicaLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns a child process")
	}
	bin := filepath.Join(t.TempDir(), "hedc-server")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/hedc-server")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build hedc-server: %v\n%s", err, out)
	}

	db, err := minidb.Open("", schema.AllSchemas()...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	dbSrv, err := dbnet.Listen("127.0.0.1:0", dbnet.Options{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	defer dbSrv.Close()
	h := &schema.HLE{ID: "hle-proc-1", Version: 1, Owner: "loader", Public: true,
		KindHint: "flare", TStop: 1, CalibVersion: 1}
	if _, err := db.Insert(schema.TableHLE, h.ToRow()); err != nil {
		t.Fatal(err)
	}

	// A free port for the child to listen on.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	proc, err := spawnProcess(bin, []string{
		"-mode", "replica", "-addr", addr, "-db-addr", dbSrv.Addr(), "-node", "proc-1",
	}, fmt.Sprintf("http://%s/healthz", addr), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer proc.Kill()
	if !proc.Healthy() {
		t.Fatal("spawned replica not healthy")
	}

	gw := NewGateway(GatewayOptions{})
	defer gw.Close()
	gw.AddReplica("proc-1", dm.NewRemote(fmt.Sprintf("http://%s/dm/", addr), nil))
	n, err := gw.CountHLEs("", "10.9.0.1", dm.HLEFilter{Kind: "flare"})
	if err != nil || n != 1 {
		t.Fatalf("count through child replica = %d, %v", n, err)
	}

	// Graceful stop: SIGTERM, the child's signal handler drains and
	// exits cleanly within the grace period.
	if err := proc.Stop(5 * time.Second); err != nil {
		t.Fatalf("graceful stop: %v", err)
	}
	if proc.Healthy() {
		t.Fatal("replica still answering after stop")
	}
}

// childProc is a replica running as a child process (hedc-server in
// replica mode). The in-process Replica is the common path; a child
// process lives in its own address space, so killing it is a faithful
// machine failure.
type childProc struct {
	cmd       *exec.Cmd
	healthURL string
}

// spawnProcess starts binary with args and waits until its health
// endpoint answers (or timeout, in which case the child is killed).
func spawnProcess(binary string, args []string, healthURL string, timeout time.Duration) (*childProc, error) {
	cmd := exec.Command(binary, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("cluster: spawn %s: %w", binary, err)
	}
	p := &childProc{cmd: cmd, healthURL: healthURL}
	deadline := time.Now().Add(timeout)
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(healthURL)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		if time.Now().After(deadline) {
			p.Kill()
			return nil, fmt.Errorf("cluster: %s did not become healthy within %v", binary, timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// Healthy re-probes the child's health endpoint.
func (p *childProc) Healthy() bool {
	client := &http.Client{Timeout: time.Second}
	resp, err := client.Get(p.healthURL)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// Stop terminates the child gracefully (SIGTERM, then SIGKILL after
// grace) and reaps it.
func (p *childProc) Stop(grace time.Duration) error {
	if p.cmd.Process == nil {
		return nil
	}
	_ = p.cmd.Process.Signal(os.Interrupt)
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(grace):
		_ = p.cmd.Process.Kill()
		return <-done
	}
}

// Kill terminates the child immediately and reaps it.
func (p *childProc) Kill() {
	if p.cmd.Process != nil {
		_ = p.cmd.Process.Kill()
		_, _ = p.cmd.Process.Wait()
	}
}
