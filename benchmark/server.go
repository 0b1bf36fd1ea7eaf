package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverBin is the geoserver built from this checkout by run.sh, relative
// to the benchmark directory (the working directory).
const serverBin = "out/geoserver"

// server is the child process under test. It is reached only through its
// sockets; its CPU time and RSS are read from the kernel, apart from the
// load generator's.
type server struct {
	cmd      *exec.Cmd
	httpAddr string
	ingest   string
	storeDir string
	exited   chan struct{} // closed once the child has been reaped
	stopOnce sync.Once
	maxRSSKB int64
}

// live is the running server, if any, so the signal handler and the exit
// path can kill it. A run has one server at a time.
var (
	liveMu sync.Mutex
	live   *server
)

// freePort picks a free loopback port by listen-and-close; the caller
// retries the boot if something else grabs it first.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServer boots geoserver in its own process group with GOMAXPROCS set
// to the CPU count and waits for /healthz. historyChunks > 0 mounts the
// store under a fresh directory in out/.
func startServer(historyChunks int) (*server, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		s, err := bootOnce(historyChunks)
		if err == nil {
			return s, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("start server: %w", lastErr)
}

func bootOnce(historyChunks int) (*server, error) {
	httpAddr, err := freePort()
	if err != nil {
		return nil, err
	}
	ingest, err := freePort()
	if err != nil {
		return nil, err
	}
	s := &server{httpAddr: httpAddr, ingest: ingest}
	args := []string{"-addr", httpAddr, "-ingest", ingest, "-local=false", "-log-level", "warn"}
	if historyChunks > 0 {
		if s.storeDir, err = os.MkdirTemp("out", "store-"); err != nil {
			return nil, err
		}
		args = append(args, "-store-dir", s.storeDir, "-history", strconv.Itoa(historyChunks))
	}
	logf, err := os.OpenFile("out/server.log", os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	s.cmd = exec.Command(serverBin, args...)
	s.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := s.cmd.Start(); err != nil {
		os.RemoveAll(s.storeDir)
		return nil, err
	}
	s.exited = make(chan struct{})
	go func() {
		s.cmd.Wait() //nolint:errcheck // the exit status is read from ProcessState
		close(s.exited)
	}()
	liveMu.Lock()
	live = s
	liveMu.Unlock()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + httpAddr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited: // e.g. lost the race for a port
			deadline = time.Time{}
		case <-time.After(5 * time.Millisecond):
		}
	}
	s.stop()
	return nil, fmt.Errorf("server on %s never became healthy (see out/server.log)", httpAddr)
}

// stop kills the server's process group, reaps it, records its peak RSS
// and removes its store directory. Safe to call more than once.
func (s *server) stop() {
	s.stopOnce.Do(func() {
		syscall.Kill(-s.cmd.Process.Pid, syscall.SIGKILL) //nolint:errcheck // already gone is fine
		<-s.exited
		if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			s.maxRSSKB = ru.Maxrss
		}
		if s.storeDir != "" {
			os.RemoveAll(s.storeDir)
		}
		liveMu.Lock()
		if live == s {
			live = nil
		}
		liveMu.Unlock()
	})
}

// killServer is the signal and exit path: kill the live server's process
// group and remove its store directory.
func killServer() {
	liveMu.Lock()
	s := live
	liveMu.Unlock()
	if s != nil {
		s.stop()
	}
}

// cpuSeconds reads the server's utime+stime from /proc/<pid>/stat. The
// counters cover every thread, exited ones included.
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the whole line.
	rest := string(b[strings.LastIndexByte(string(b), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat times")
	}
	const userHZ = 100 // Linux USER_HZ, fixed by the ABI
	return float64(utime+stime) / userHZ, nil
}
