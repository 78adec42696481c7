// Package isa models the minimal slice of the x86-64 instruction set that
// the Leaky Frontends attacks depend on: instruction byte lengths (which
// determine 32-byte-window and DSB-set mapping), micro-op counts, length
// changing prefixes (LCPs), and direct jumps.
//
// The paper's attack primitive is the "instruction mix block": 4 mov
// instructions plus 1 jmp, 25 bytes and 5 micro-ops in total, chosen so a
// block fits in one 32-byte window, decodes to at most 6 micro-ops (one
// DSB line), and avoids backend port contention (Section IV-D). This
// package builds those blocks, lays them out at virtual addresses that
// collide in a chosen DSB set (Figure 3), and produces the dynamic
// instruction streams that the frontend simulator consumes.
//
// A stream is one type, SeqStream: a value cursor over a Program, a
// sequence of pieces that each repeat an immutable instruction body. A
// loop is one piece, whose last repetition yields its back-edge not
// taken. Since bodies are never written, copying a stream is an
// assignment, and a simulator that holds its streams by value is copied
// the same way.
package isa

import "fmt"

// Kind enumerates the instruction flavours the simulator distinguishes.
type Kind uint8

const (
	// Mov is a register-register mov: 1 fused micro-op, no memory traffic.
	Mov Kind = iota
	// Add is a register add: 1 micro-op.
	Add
	// AddLCP is an add carrying a 0x66 operand-size-override prefix, a
	// length changing prefix that stalls the MITE predecoder (Section IV-H).
	AddLCP
	// Jmp is an unconditional direct jump: 1 micro-op on port 6.
	Jmp
	// Nop is a single-byte nop: decodes to 1 micro-op, retires without
	// using an execution port (Section XI-A's receiver uses these).
	Nop
	// Load is a simple load; used only by cache-channel baselines.
	Load
	// Store is a simple store; used only by cache-channel baselines.
	Store
	// Pause is the x86 spin-wait hint: it stalls delivery for a fixed
	// window. Cross-thread covert-channel protocols use it between
	// encode steps to synchronize sender and receiver (Section V-A's
	// repeated encode/decode step pattern).
	Pause
)

// String returns the mnemonic for the kind.
func (k Kind) String() string {
	switch k {
	case Mov:
		return "mov"
	case Add:
		return "add"
	case AddLCP:
		return "add66"
	case Jmp:
		return "jmp"
	case Nop:
		return "nop"
	case Load:
		return "load"
	case Store:
		return "store"
	case Pause:
		return "pause"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Inst is one dynamic instruction instance. Addr/Len place it in the
// virtual address space (and hence in fetch windows and DSB sets); UOps is
// the number of micro-ops it decodes into.
type Inst struct {
	Addr   uint64
	Target uint64 // branch target when taken
	Len    uint8
	UOps   uint8
	Kind   Kind
	Taken  bool // dynamic branch outcome for this instance
	// MemAddr is the data address touched by Load/Store instructions.
	MemAddr uint64
}

// IsBranch reports whether the instruction redirects fetch when taken.
func (i Inst) IsBranch() bool { return i.Kind == Jmp }

// HasLCP reports whether the instruction carries a length changing prefix.
func (i Inst) HasLCP() bool { return i.Kind == AddLCP }

// End returns the address one past the instruction's last byte.
func (i Inst) End() uint64 { return i.Addr + uint64(i.Len) }

// Geometry of the frontend structures as documented in the paper
// (Section IV-B) and Intel's optimization manual. These constants are the
// address-layout contract between code placement and DSB indexing.
const (
	// WindowBytes is the 32-byte instruction window tracked per DSB line.
	WindowBytes = 32
	// DSBSets is the number of sets in the DSB.
	DSBSets = 32
	// DSBWays is the DSB associativity.
	DSBWays = 8
	// MisalignOffset is the half-window offset used to misalign blocks
	// (Section IV-G: "offset the initial address ... by 16 bytes").
	MisalignOffset = 16
)

// codeBase is the base virtual address for generated code regions. The
// value mirrors the addresses in the paper's Figure 3 (0x41_8000 region).
const codeBase = 0x0041_8000

// Window returns the 32-byte window index of an address.
func Window(addr uint64) uint64 { return addr / WindowBytes }

// DSBSet returns the (unpartitioned) DSB set an address maps to:
// addr[9:5] per the paper's reverse engineering.
func DSBSet(addr uint64) int { return int((addr >> 5) & (DSBSets - 1)) }

// AddrForSet returns an aligned start address whose addr[9:5] equals set,
// with distinct tags per way so that `way` values 0..k produce addresses
// that collide in the set without aliasing each other.
func AddrForSet(set, way int) uint64 {
	if set < 0 || set >= DSBSets {
		panic(fmt.Sprintf("isa: set %d out of range", set))
	}
	if way < 0 {
		panic("isa: negative way")
	}
	return codeBase + uint64(way)<<10 | uint64(set)<<5
}

// MisalignedAddrForSet returns AddrForSet(set, way) offset by half a
// window, producing a block that spans two windows (Section IV-G).
func MisalignedAddrForSet(set, way int) uint64 {
	return AddrForSet(set, way) + MisalignOffset
}

// Block is a short straight-line instruction sequence ending in a jmp.
type Block struct {
	Insts []Inst
}

// Start returns the address of the block's first instruction.
func (b *Block) Start() uint64 {
	if len(b.Insts) == 0 {
		panic("isa: empty block")
	}
	return b.Insts[0].Addr
}

// UOps returns the total micro-op count of the block.
func (b *Block) UOps() int {
	n := 0
	for _, in := range b.Insts {
		n += int(in.UOps)
	}
	return n
}

// Bytes returns the total byte length of the block.
func (b *Block) Bytes() int {
	n := 0
	for _, in := range b.Insts {
		n += int(in.Len)
	}
	return n
}

// Misaligned reports whether the block starts at a half-window offset and
// therefore spans two 32-byte windows.
func (b *Block) Misaligned() bool {
	start := b.Start()
	return start%WindowBytes != 0 && Window(start) != Window(b.Insts[len(b.Insts)-1].End()-1)
}

// SetTarget points the block's terminating jmp at target.
func (b *Block) SetTarget(target uint64) {
	last := &b.Insts[len(b.Insts)-1]
	if last.Kind != Jmp {
		panic("isa: block does not end in jmp")
	}
	last.Target = target
}

// MixBlock builds the canonical instruction mix block of Section IV-D: 4
// mov plus 1 jmp, 25 bytes, 5 micro-ops, starting at start.
func MixBlock(start uint64) *Block {
	lens := []uint8{6, 6, 6, 5}
	insts := make([]Inst, 0, 5)
	addr := start
	for _, l := range lens {
		insts = append(insts, Inst{Addr: addr, Len: l, UOps: 1, Kind: Mov})
		addr += uint64(l)
	}
	insts = append(insts, Inst{Addr: addr, Len: 2, UOps: 1, Kind: Jmp, Taken: true})
	return &Block{Insts: insts}
}

// NopBlock builds a block of n single-byte nops plus a terminating jmp,
// the receiver loop of the fingerprinting side channel (Section XI-A).
func NopBlock(start uint64, n int) *Block { return NopBlockLen(start, n, 1) }

// NopBlockLen builds a nop block with nopLen-byte nop encodings (x86 has
// canonical nops from 1 to 15 bytes; 2-byte xchg-style nops keep each
// 32-byte window within the DSB's per-window micro-op budget, matching
// the paper's claim that the 100-nop receiver loop fits in the DSB).
func NopBlockLen(start uint64, n, nopLen int) *Block {
	if nopLen < 1 || nopLen > 15 {
		panic("isa: nop length out of range")
	}
	insts := make([]Inst, 0, n+1)
	addr := start
	for i := 0; i < n; i++ {
		insts = append(insts, Inst{Addr: addr, Len: uint8(nopLen), UOps: 1, Kind: Nop})
		addr += uint64(nopLen)
	}
	insts = append(insts, Inst{Addr: addr, Len: 2, UOps: 1, Kind: Jmp, Taken: true})
	return &Block{Insts: insts}
}

// LCPBlock builds the Figure 4 loop body: 2r add instructions followed by
// a jmp. With mixed=true the adds alternate normal/LCP ("mixed issue");
// otherwise r normal adds are followed by r LCP adds ("ordered issue").
func LCPBlock(start uint64, r int, mixed bool) *Block {
	const (
		addLen    = 3 // add r64, imm8
		addLCPLen = 4 // 0x66-prefixed add
	)
	insts := make([]Inst, 0, 2*r+1)
	addr := start
	emit := func(k Kind) {
		l := uint8(addLen)
		if k == AddLCP {
			l = addLCPLen
		}
		insts = append(insts, Inst{Addr: addr, Len: l, UOps: 1, Kind: k})
		addr += uint64(l)
	}
	if mixed {
		for i := 0; i < r; i++ {
			emit(Add)
			emit(AddLCP)
		}
	} else {
		for i := 0; i < r; i++ {
			emit(Add)
		}
		for i := 0; i < r; i++ {
			emit(AddLCP)
		}
	}
	insts = append(insts, Inst{Addr: addr, Len: 2, UOps: 1, Kind: Jmp, Taken: true})
	return &Block{Insts: insts}
}

// PauseBlock builds a block with n pause instructions plus a terminating
// jmp, the synchronization pad between covert-channel protocol steps.
func PauseBlock(start uint64, n int) *Block {
	insts := make([]Inst, 0, n+1)
	addr := start
	for i := 0; i < n; i++ {
		insts = append(insts, Inst{Addr: addr, Len: 2, UOps: 1, Kind: Pause})
		addr += 2
	}
	insts = append(insts, Inst{Addr: addr, Len: 2, UOps: 1, Kind: Jmp, Taken: true})
	return &Block{Insts: insts}
}

// LoadBlock builds a block of n loads touching the given data addresses,
// plus a terminating jmp. Used by the cache-channel Spectre baselines.
func LoadBlock(start uint64, dataAddrs []uint64) *Block {
	insts := make([]Inst, 0, len(dataAddrs)+1)
	addr := start
	for _, da := range dataAddrs {
		insts = append(insts, Inst{Addr: addr, Len: 4, UOps: 1, Kind: Load, MemAddr: da})
		addr += 4
	}
	insts = append(insts, Inst{Addr: addr, Len: 2, UOps: 1, Kind: Jmp, Taken: true})
	return &Block{Insts: insts}
}

// ChainLoop links each block's jmp to the next block's start and the last
// block back to the first, forming the closed chain of Figure 3 that the
// LSD can lock onto.
func ChainLoop(blocks []*Block) {
	if len(blocks) == 0 {
		return
	}
	for i, b := range blocks {
		b.SetTarget(blocks[(i+1)%len(blocks)].Start())
	}
}

// MixChain builds and chain-loops count mix blocks that all map to the
// given DSB set. Blocks are aligned when aligned is true, and misaligned
// by 16 bytes otherwise.
func MixChain(set, count int, aligned bool) []*Block {
	blocks := make([]*Block, count)
	for w := 0; w < count; w++ {
		if aligned {
			blocks[w] = MixBlock(AddrForSet(set, w))
		} else {
			blocks[w] = MixBlock(MisalignedAddrForSet(set, w))
		}
	}
	ChainLoop(blocks)
	return blocks
}

// MixChainMixed builds a chain of nAligned aligned followed by nMisaligned
// misaligned mix blocks, all mapping to the same DSB set, reproducing the
// {aligned + misaligned} access pairs of Section IV-G.
func MixChainMixed(set, nAligned, nMisaligned int) []*Block {
	blocks := make([]*Block, 0, nAligned+nMisaligned)
	way := 0
	for i := 0; i < nAligned; i++ {
		blocks = append(blocks, MixBlock(AddrForSet(set, way)))
		way++
	}
	for i := 0; i < nMisaligned; i++ {
		blocks = append(blocks, MixBlock(MisalignedAddrForSet(set, way)))
		way++
	}
	ChainLoop(blocks)
	return blocks
}
