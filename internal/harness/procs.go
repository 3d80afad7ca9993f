package harness

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// The process supervisor: the scale experiment's process-per-shard row and
// the multi-process smoke run real `cubeserver -serve-shard` children, not
// in-process stand-ins, so the leader's remote tier is measured across a
// genuine process and loopback-TCP boundary — serialization, kernel socket
// hops, and independent schedulers included.

// BuildCubeserver compiles the cubeserver command into dir and returns the
// binary path. The module root is found by walking up from the working
// directory to go.mod, so the build works from any package's test directory
// as well as from the repository root.
func BuildCubeserver(dir string) (string, error) {
	root, err := moduleRoot()
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "cubeserver")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/cubeserver")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("harness: building cubeserver: %v\n%s", err, out)
	}
	return bin, nil
}

func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("harness: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// FreeAddr reserves a loopback port by briefly listening on it. The listener
// is closed before returning, so a raced port grab is possible in principle;
// the child's boot health-poll catches it as a startup failure.
func FreeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

// ShardProc supervises one `cubeserver -serve-shard` child: an empty shard
// process awaiting the leader's slab push on POST /state. Kill and Restart
// model the partial-failure lifecycle the leader's probe must survive —
// Restart reuses the same address so the leader's configured ShardURLs stay
// valid across the crash.
type ShardProc struct {
	Index int
	Addr  string
	bin   string
	cmd   *exec.Cmd

	flags  []string  // passed after the ones start always sets
	stderr io.Writer // the child's stderr; os.Stderr when nil
}

// StartShardProc spawns shard process index on addr (an empty addr picks a
// free loopback port) and waits for its /healthz to answer.
func StartShardProc(bin string, index int, addr string) (*ShardProc, error) {
	return startShardProc(&ShardProc{Index: index, Addr: addr, bin: bin})
}

// startShardProc is StartShardProc for a p that may carry extra flags and
// an stderr sink.
func startShardProc(p *ShardProc) (*ShardProc, error) {
	if p.Addr == "" {
		var err error
		if p.Addr, err = FreeAddr(); err != nil {
			return nil, err
		}
	}
	if err := p.start(); err != nil {
		return nil, err
	}
	return p, nil
}

// URL is the base URL the leader's ShardURLs entry should carry.
func (p *ShardProc) URL() string { return "http://" + p.Addr }

func (p *ShardProc) start() error {
	cmd := exec.Command(p.bin, append([]string{
		"-serve-shard", fmt.Sprint(p.Index),
		"-addr", p.Addr,
		"-metrics=false",
	}, p.flags...)...)
	cmd.Stdout = nil
	cmd.Stderr = os.Stderr
	if p.stderr != nil {
		cmd.Stderr = p.stderr
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("harness: starting shard %d: %w", p.Index, err)
	}
	p.cmd = cmd
	if err := p.awaitHealthy(10 * time.Second); err != nil {
		p.Kill()
		return err
	}
	return nil
}

// awaitHealthy polls the liveness probe — a shard still awaiting its first
// state push answers /healthz 200 (it is alive; /readyz is what stays 503
// until the slab lands).
func (p *ShardProc) awaitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(p.URL() + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("harness: shard %d on %s never became healthy", p.Index, p.Addr)
}

// Kill terminates the child immediately (SIGKILL — a crash, not a drain) and
// reaps it. Safe to call on an already-dead process.
func (p *ShardProc) Kill() error {
	if p.cmd == nil || p.cmd.Process == nil {
		return nil
	}
	p.cmd.Process.Kill()
	p.cmd.Wait()
	p.cmd = nil
	return nil
}

// Stop freezes the child with SIGSTOP: the process stays alive and its
// sockets stay open, but nothing answers — the stall shape that makes the
// leader's hedged duplicate requests fire, where SIGKILL's instant
// connection-refused never would. Undo with Resume (or escalate to Kill;
// a SIGKILL reaps a stopped process fine).
//
// Stop returns only once the kernel reports the child stopped. kill(2)
// merely queues the signal: until one thread of the child is scheduled and
// dequeues it, the others keep serving, and on a busy box the next request
// can still be answered — by a shard the caller believes frozen.
func (p *ShardProc) Stop() error {
	if p.cmd == nil || p.cmd.Process == nil {
		return fmt.Errorf("harness: shard %d is not running", p.Index)
	}
	if err := p.cmd.Process.Signal(syscall.SIGSTOP); err != nil {
		return err
	}
	var ws syscall.WaitStatus
	for {
		_, err := syscall.Wait4(p.cmd.Process.Pid, &ws, syscall.WUNTRACED, nil)
		if errors.Is(err, syscall.EINTR) {
			continue
		}
		if err != nil {
			return fmt.Errorf("harness: awaiting shard %d's stop: %w", p.Index, err)
		}
		if !ws.Stopped() {
			return fmt.Errorf("harness: shard %d exited instead of stopping", p.Index)
		}
		return nil
	}
}

// Resume thaws a Stop-frozen child with SIGCONT.
func (p *ShardProc) Resume() error {
	if p.cmd == nil || p.cmd.Process == nil {
		return fmt.Errorf("harness: shard %d is not running", p.Index)
	}
	return p.cmd.Process.Signal(syscall.SIGCONT)
}

// Restart boots a fresh process on the same address. The leader's resync
// probe is what repopulates it: the new process is empty and sheds queries
// until the next POST /state lands.
func (p *ShardProc) Restart() error {
	p.Kill()
	return p.start()
}
