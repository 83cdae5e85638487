#include "textflag.h"
#include "go_asm.h"

// The crossbar-and-fire kernel. Per block of 8 neurons, ZMM register i
// holds neuron i's popcounts of its mask words ANDed with the active words,
// [e0w0 e0w1 e0w2 e0w3 e1w0 e1w1 e1w2 e1w3] (entry 0, then entry 1). The
// three levels of 128-bit-lane unpacks and shuffles of the fast path's
// tickBlocks4 (internal/deploy) add these into the per-entry counts p0 and
// p1 of neurons 0-7 in order; the arithmetic after them is int32, which
// wraps as Go's does. Operand order is Go's: the last operand is the
// destination, the one before it the first source.

// func crossbarBlocks4(masks []uint64, active *[4]uint64, blocks []kernelBlock, v []int32, fire, undecided []uint8) (syn int64)
TEXT ·crossbarBlocks4(SB), NOSPLIT, $0-136
	MOVQ masks_base+0(FP), SI
	MOVQ active+24(FP), AX
	MOVQ blocks_base+32(FP), R8
	MOVQ blocks_len+40(FP), CX
	MOVQ v_base+56(FP), R9
	MOVQ fire_base+80(FP), DI
	MOVQ undecided_base+104(FP), DX
	VBROADCASTI64X4 (AX), Z31 // [a0 a1 a2 a3 a0 a1 a2 a3]
	VPXORQ     Z30, Z30, Z30 // synaptic events, 8 qword lanes
	VPTERNLOGD $0xff, Y29, Y29, Y29 // -1 in every dword
	XORQ BX, BX
	TESTQ CX, CX
	JEQ  reduce

loop:
	// A neuron's arena row is 128 bytes; entries 0 and 1 are its first 64.
	VPANDQ   0(SI), Z31, Z0
	VPANDQ   128(SI), Z31, Z1
	VPANDQ   256(SI), Z31, Z2
	VPANDQ   384(SI), Z31, Z3
	VPANDQ   512(SI), Z31, Z4
	VPANDQ   640(SI), Z31, Z5
	VPANDQ   768(SI), Z31, Z6
	VPANDQ   896(SI), Z31, Z7
	VPOPCNTQ Z0, Z0
	VPOPCNTQ Z1, Z1
	VPOPCNTQ Z2, Z2
	VPOPCNTQ Z3, Z3
	VPOPCNTQ Z4, Z4
	VPOPCNTQ Z5, Z5
	VPOPCNTQ Z6, Z6
	VPOPCNTQ Z7, Z7

	// Level 1: lane L of A(2i,2i+1) = [Z(2i) pair-L sum, Z(2i+1) pair-L
	// sum] for the word pairs (e0w0,e0w1) (e0w2,e0w3) (e1w0,e1w1)
	// (e1w2,e1w3).
	VPUNPCKLQDQ Z1, Z0, Z8
	VPUNPCKHQDQ Z1, Z0, Z9
	VPADDQ      Z9, Z8, Z8
	VPUNPCKLQDQ Z3, Z2, Z10
	VPUNPCKHQDQ Z3, Z2, Z11
	VPADDQ      Z11, Z10, Z10
	VPUNPCKLQDQ Z5, Z4, Z12
	VPUNPCKHQDQ Z5, Z4, Z13
	VPADDQ      Z13, Z12, Z12
	VPUNPCKLQDQ Z7, Z6, Z14
	VPUNPCKHQDQ Z7, Z6, Z15
	VPADDQ      Z15, Z14, Z14

	// Level 2: S(0123) = [Z0,Z1 entry 0][Z0,Z1 entry 1][Z2,Z3 entry 0]
	// [Z2,Z3 entry 1], likewise S(4567). $0x88 picks lanes 0,2 of each
	// source, $0xDD lanes 1,3.
	VSHUFI64X2 $0x88, Z10, Z8, Z0
	VSHUFI64X2 $0xDD, Z10, Z8, Z1
	VPADDQ     Z1, Z0, Z0
	VSHUFI64X2 $0x88, Z14, Z12, Z2
	VSHUFI64X2 $0xDD, Z14, Z12, Z3
	VPADDQ     Z3, Z2, Z2

	// Level 3: p0 and p1 of neurons 0-7 in order.
	VSHUFI64X2 $0x88, Z2, Z0, Z4
	VSHUFI64X2 $0xDD, Z2, Z0, Z5
	VPADDQ     Z4, Z30, Z30
	VPADDQ     Z5, Z30, Z30
	VPMOVQD    Z4, Y16 // p0 <= 256
	VPMOVQD    Z5, Y17 // p1 <= 256

	// v = W0*p0 + W1*p1 + Base, wrapping.
	VPMULLD   kernelBlock_W0(R8), Y16, Y16
	VPMULLD   kernelBlock_W1(R8), Y17, Y17
	VPADDD    Y17, Y16, Y16
	VPADDD    kernelBlock_Base(R8), Y16, Y16
	VMOVDQU32 Y16, (R9)

	// fire: v >= Threshold (predicate 5, not less than). undecided:
	// (Draws AND (v >= Threshold XOR v+1 >= Threshold)) OR Persistent.
	VPCMPD  $5, kernelBlock_Threshold(R8), Y16, K1
	VPSUBD  Y29, Y16, Y18 // v+1
	VPCMPD  $5, kernelBlock_Threshold(R8), Y18, K2
	KXORW   K1, K2, K2
	MOVBLZX kernelBlock_Draws(R8), R10
	KMOVW   R10, K3
	KANDW   K3, K2, K2
	MOVBLZX kernelBlock_Persistent(R8), R11
	KMOVW   R11, K3
	KORW    K3, K2, K2
	KMOVW   K1, R10
	KMOVW   K2, R11
	MOVB    R10, (DI)(BX*1)
	MOVB    R11, (DX)(BX*1)

	ADDQ $1024, SI
	ADDQ $kernelBlock__size, R8
	ADDQ $32, R9
	INCQ BX
	CMPQ BX, CX
	JLT  loop

reduce:
	VEXTRACTI64X4 $1, Z30, Y0
	VPADDQ        Y30, Y0, Y0
	VEXTRACTI128  $1, Y0, X1
	VPADDQ        X1, X0, X0
	VPSRLDQ       $8, X0, X1
	VPADDQ        X1, X0, X0
	VMOVQ         X0, AX
	MOVQ          AX, syn+128(FP)
	VZEROUPPER
	RET
