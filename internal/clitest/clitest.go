// Package clitest runs the pcluster command end to end from tests: it
// builds the binary once per test binary and executes it as a
// subprocess, so a test sees exactly what a user sees: stdout, the exit
// status, and the error line on stderr.
//
// A test package wires it up in TestMain:
//
//	func TestMain(m *testing.M) { os.Exit(clitest.Main(m)) }
//
// and then calls Run with the algorithm name and the remaining flags.
package clitest

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// bin is the pcluster binary built by Main.
var bin string

// Main builds pcluster into a temporary directory, runs the tests and
// removes the directory again. It returns the exit code for os.Exit.
func Main(m *testing.M) int {
	dir, err := os.MkdirTemp("", "clitest")
	if err != nil {
		fmt.Fprintln(os.Stderr, "clitest:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	bin = filepath.Join(dir, "pcluster")
	build := exec.Command(goTool(), "build", "-o", bin, "proclus/cmd/pcluster")
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "clitest: building pcluster: %v\n%s", err, out)
		return 1
	}
	return m.Run()
}

// Run executes `pcluster -algo algo args...`, appending its stdout to
// out. A non-zero exit is returned as an error carrying stderr, which
// holds pcluster's error message.
func Run(algo string, args []string, out *strings.Builder) error {
	if bin == "" {
		return errors.New("clitest: pcluster not built (call clitest.Main from TestMain)")
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, append([]string{"-algo", algo}, args...)...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	out.Write(stdout.Bytes())
	if err != nil {
		return fmt.Errorf("%v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return nil
}

// goTool finds the go command: on PATH, else next to the toolchain the
// test binary was built with.
func goTool() string {
	if p, err := exec.LookPath("go"); err == nil {
		return p
	}
	return filepath.Join(runtime.GOROOT(), "bin", "go")
}
