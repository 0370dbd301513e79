package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// serverConf is how a serve workload wants its server configured.
type serverConf struct {
	cache  int64 // graph store bound; 0 keeps the server default
	traced bool  // sample every trace and keep enough spans to fetch them
}

// target is a running server: where to reach it, its process (for peak
// RSS), and how to stop it. stop returns once the server has exited.
type target struct {
	base string
	pid  int
	stop func()
}

type startFunc func(ctx context.Context, sc serverConf) (*target, error)

// traceRing is the span ring of a traced server, roomy enough to keep every
// span of a traced half: under 100 requests of a few dozen spans each.
const traceRing = 1 << 16

// subprocessServer launches the distcolor-serve binary at bin on a free
// loopback port, with the harness's parallelism, and waits for /healthz.
func subprocessServer(bin string) startFunc {
	return func(ctx context.Context, sc serverConf) (*target, error) {
		if bin == "" {
			return nil, errors.New("the serve workloads need -server-bin (bench/run.sh builds it)")
		}
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		args := []string{"-addr", addr, "-workers", strconv.Itoa(serverProcs), "-pprof", "-log-level", "warn"}
		if sc.traced {
			args = append(args, "-trace-sample", "1", "-trace-ring", strconv.Itoa(traceRing))
		} else {
			args = append(args, "-trace-sample", "-1")
		}
		if sc.cache > 0 {
			args = append(args, "-cache", strconv.FormatInt(sc.cache, 10))
		}
		cmd := exec.Command(bin, args...)
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(serverProcs))
		logs := &tailBuffer{}
		cmd.Stdout, cmd.Stderr = logs, logs
		// The server must not outlive the harness, even one that is killed.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		exited := make(chan struct{})
		go func() {
			_ = cmd.Wait() // the exit status of a stopped server carries nothing
			close(exited)
		}()
		var once sync.Once
		t := &target{base: "http://" + addr, pid: cmd.Process.Pid}
		t.stop = func() {
			once.Do(func() {
				_ = cmd.Process.Signal(syscall.SIGTERM)
				select {
				case <-exited:
				case <-time.After(5 * time.Second):
					_ = cmd.Process.Kill()
					<-exited
				}
			})
		}
		if err := waitHealthy(ctx, t.base, exited); err != nil {
			t.stop()
			return nil, fmt.Errorf("%w; server output: %s", err, logs)
		}
		return t, nil
	}
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// waitHealthy polls /healthz until it answers 200, the process exits, or
// 10 s pass.
func waitHealthy(ctx context.Context, base string, exited <-chan struct{}) error {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	c := &http.Client{Timeout: time.Second}
	for {
		req, err := http.NewRequestWithContext(ctx, "GET", base+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := c.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-exited:
			return errors.New("server exited during start-up")
		case <-ctx.Done():
			return fmt.Errorf("server not healthy: %w", ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// tailBuffer keeps the last few KiB written to it: the server's output,
// shown when it fails to start.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

const tailBytes = 4 << 10

func (b *tailBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf = append(b.buf, p...)
	if len(b.buf) > tailBytes {
		b.buf = b.buf[len(b.buf)-tailBytes:]
	}
	return len(p), nil
}

func (b *tailBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return string(b.buf)
}
