// Package cmdtest lets a command's tests run that command in a child
// process, for what only a real process shows: flag parsing, the exit
// status, files written on the way out, and state that survives a
// SIGKILL. The test binary re-executes itself with argv[0] set to the
// command's name, and Main, called from the package's TestMain, runs the
// command's main instead of the tests when it sees that name.
package cmdtest

import (
	"bytes"
	"os"
	"os/exec"
	"testing"
)

// Main is the body of a command package's TestMain: in a child started
// by Run or Start it runs main, which exits non-zero on failure, and
// then exits 0; otherwise it runs the tests.
func Main(m *testing.M, name string, main func()) {
	if os.Args[0] == name {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// command re-executes the test binary as the command name.
func command(t testing.TB, name string, args ...string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Args[0] = name
	return cmd
}

// Run runs the command with args to completion and returns its standard
// output and standard error; err is non-nil when it exits non-zero.
func Run(t testing.TB, name string, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	cmd := command(t, name, args...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	return out.String(), errOut.String(), err
}

// Proc is a command running in the background, started by Start.
type Proc struct {
	cmd    *exec.Cmd
	stderr bytes.Buffer
}

// Start starts the command with args and returns without waiting for
// it. The test's cleanup kills the process if the test did not, and logs
// its standard error if the test failed.
func Start(t testing.TB, name string, args ...string) *Proc {
	t.Helper()
	p := &Proc{cmd: command(t, name, args...)}
	p.cmd.Stderr = &p.stderr
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		p.Kill()
		if t.Failed() {
			t.Logf("%s %q standard error:\n%s", name, args, p.stderr.String())
		}
	})
	return p
}

// Kill sends SIGKILL, so no signal handler, deferred call or flush runs
// in the process, and waits for it to exit. Calling it again does
// nothing: both calls then fail harmlessly.
func (p *Proc) Kill() {
	_ = p.cmd.Process.Kill() // fails once the process has been waited for
	_ = p.cmd.Wait()         // reports the kill, or a second Wait
}
