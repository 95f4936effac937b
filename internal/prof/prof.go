// Package prof wires the standard runtime/pprof file profiles into
// earmac-sim: a -cpuprofile/-memprofile pair handed to Start, a deferred
// Stop, the file/handle bookkeeping kept out of the CLI's main.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Session holds the open CPU-profile file (if any) and the pending
// heap-profile path between Start and Stop.
type Session struct {
	cpuFile *os.File
	memPath string
}

// Start begins CPU profiling to cpuPath and remembers memPath for Stop;
// either path may be empty to skip that profile. On error nothing is
// left running.
func Start(cpuPath, memPath string) (*Session, error) {
	s := &Session{memPath: memPath}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("start CPU profile: %w", err)
		}
		s.cpuFile = f
	}
	return s, nil
}

// Stop ends the CPU profile and writes the heap profile, if either was
// requested. It is safe to call exactly once, typically deferred right
// after Start.
func (s *Session) Stop() error {
	var first error
	if s.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := s.cpuFile.Close(); err != nil && first == nil {
			first = err
		}
		s.cpuFile = nil
	}
	if s.memPath != "" {
		f, err := os.Create(s.memPath)
		if err != nil {
			if first == nil {
				first = err
			}
		} else {
			runtime.GC() // flush recently freed objects out of the live-heap profile
			if err := pprof.WriteHeapProfile(f); err != nil && first == nil {
				first = fmt.Errorf("write heap profile: %w", err)
			}
			if err := f.Close(); err != nil && first == nil {
				first = err
			}
		}
		s.memPath = ""
	}
	return first
}
