// Command leakyref measures how fast the host runs a fixed piece of
// work, so that leakybench can take the host's speed out of its CPU-time
// metrics. Every 25 ms it runs one reference chunk — a byte-code
// interpreter over a 1 MiB table and a sort of 4096 integers, branchy
// cache-bound work like the simulator's — and times it with the
// thread's CPU clock. When its standard input closes it prints
//
//	<chunks> <total CPU ns of the chunks>
//
// and exits. It imports nothing from the repository, so a change to the
// program under test cannot change its code or its layout.
package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// period is the time between chunks; at about 1 ms a chunk, the meter
// takes some 4% of one CPU.
const period = 25 * time.Millisecond

func main() {
	done := make(chan struct{})
	go func() {
		io.Copy(io.Discard, os.Stdin)
		close(done)
	}()
	// The chunk is timed with the CPU clock of the thread that runs it.
	runtime.LockOSThread()
	tick := time.NewTicker(period)
	defer tick.Stop()
	var chunks, ns int64
	for {
		start := threadCPU()
		chunk()
		ns += threadCPU() - start
		chunks++
		select {
		case <-done:
			fmt.Printf("%d %d\n", chunks, ns)
			return
		case <-tick.C:
		}
	}
}

// threadCPU returns the CPU time of the calling thread in nanoseconds:
// clock_gettime(CLOCK_THREAD_CPUTIME_ID), which, unlike getrusage, is not
// rounded to scheduler ticks.
func threadCPU() int64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // a valid clock id and pointer cannot fail
	}
	return ts.Nano()
}

const (
	steps     = 40_000
	tableSize = 1 << 17 // 1 MiB of uint64
)

var (
	program = func() []byte {
		p := make([]byte, steps)
		x := uint64(88172645463325252)
		for i := range p {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			p[i] = byte(x % 8)
		}
		return p
	}()
	table = make([]uint64, tableSize)
	keys  = make([]uint32, 4096)
	sink  uint64
)

// chunk is the reference work: one pass of an interpreter over program,
// whose opcodes read, write and branch on table, then a sort of fresh
// keys.
func chunk() {
	var acc, idx uint64 = 1, 0
	for _, op := range program {
		switch op {
		case 0:
			acc += table[idx]
		case 1:
			table[idx] ^= acc
		case 2:
			idx = (idx*31 + acc) & (tableSize - 1)
		case 3:
			if acc&1 == 0 {
				acc >>= 1
			} else {
				acc = acc*3 + 1
			}
		case 4:
			acc ^= acc << 7
		case 5:
			idx = (idx + 1) & (tableSize - 1)
		case 6:
			if table[idx] > acc {
				acc++
			}
		case 7:
			acc = acc*0x9E3779B97F4A7C15 + 1
		}
	}
	x := uint32(2463534242)
	for i := range keys {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		keys[i] = x
	}
	slices.Sort(keys)
	sink += acc + uint64(keys[0])
}
