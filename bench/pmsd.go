package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	dm "repro/internal/metrics"
)

// buildPMSD compiles ./cmd/pmsd of the repository at root into the
// benchmark's build directory and returns the binary's path.
func buildPMSD(root string) (string, error) {
	bin := filepath.Join(root, buildDir, "pmsd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/pmsd")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building cmd/pmsd: %w", err)
	}
	return bin, nil
}

// listenLine is the startup log line pmsd prints once it accepts
// connections; the smoke scripts grep the same shape.
var listenLine = regexp.MustCompile(`pmsd listening on (\S+)`)

// proc is one running pmsd child process.
type proc struct {
	cmd     *exec.Cmd
	base    string        // http://host:port
	logDone chan struct{} // closed once the child's stderr reaches EOF
	dir     string        // the process's store directory, removed once it exits
}

// startPMSD execs the pmsd binary with its ordinary serve flags on an
// ephemeral localhost port and waits for the listening log line. dir, if
// set, is removed when the process is stopped.
func startPMSD(bin string, args []string, dir string) (*proc, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	p := &proc{cmd: cmd, logDone: make(chan struct{}), dir: dir}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, errors.Join(err, p.removeDir())
	}
	if err := cmd.Start(); err != nil {
		return nil, errors.Join(fmt.Errorf("starting pmsd: %w", err), p.removeDir())
	}
	addrCh := make(chan string, 1)
	var tail []string // last log lines, for the error when pmsd dies early
	go func() {
		defer close(p.logDone)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		found := false
		for sc.Scan() {
			if found {
				continue // keep draining so pmsd never blocks on a full pipe
			}
			line := sc.Text()
			if m := listenLine.FindStringSubmatch(line); m != nil {
				found = true
				addrCh <- m[1]
				continue
			}
			tail = append(tail, line)
			if len(tail) > 5 {
				tail = tail[1:]
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
	}()
	select {
	case addr := <-addrCh:
		p.base = "http://" + addr
		return p, nil
	case <-p.logDone:
		_ = cmd.Wait()
		_ = p.removeDir()
		return nil, fmt.Errorf("pmsd exited before listening: %s", strings.Join(tail, " | "))
	case <-time.After(30 * time.Second):
		p.kill()
		return nil, errors.New("pmsd did not report a listening address within 30s")
	}
}

// stop drains pmsd with SIGTERM, escalating to SIGKILL after 10s, and
// waits for the process to exit.
func (p *proc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.kill()
		return err
	}
	select {
	case <-p.logDone:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.logDone
	}
	err := p.cmd.Wait()
	return errors.Join(err, p.removeDir())
}

// kill ends pmsd at once; used for set-up repetitions and error paths,
// whose state is thrown away.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.logDone
	_ = p.cmd.Wait()
	_ = p.removeDir()
}

func (p *proc) removeDir() error {
	if p.dir == "" {
		return nil
	}
	return os.RemoveAll(p.dir)
}

// scrape reads pmsd's own /metrics exposition, so a number the benchmark
// reports is the number a dashboard shows.
func (p *proc) scrape(ctx context.Context, c *http.Client) (*dm.Scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d", resp.StatusCode)
	}
	return dm.ParseExposition(string(data))
}

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat;
// it is 100 on every Linux ABI Go supports.
const clockTicks = 100

// cpuSeconds returns the user+system CPU time pmsd has used so far.
func (p *proc) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after its ')'.
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(utime+stime) / clockTicks, nil
}

// rssDuring samples pmsd's resident set every 100ms while fn runs and
// returns the median sample in MiB: memory held while serving, steadier
// than the peak, which depends on where garbage collections happen to fall.
func (p *proc) rssDuring(fn func()) (float64, error) {
	stop := make(chan struct{})
	var samples []float64
	var err error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				var mb float64
				if mb, err = p.rssMB(); err != nil {
					return
				}
				samples = append(samples, mb)
			}
		}
	}()
	fn()
	close(stop)
	wg.Wait()
	if err != nil {
		return 0, err
	}
	if len(samples) == 0 {
		return p.rssMB()
	}
	_, med, _ := quartiles(samples)
	return med, nil
}

// rssMB returns pmsd's VmRSS in MiB.
func (p *proc) rssMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, err
			}
			return float64(kb) / 1024, nil
		}
	}
	return 0, errors.New("no VmRSS in /proc status")
}
