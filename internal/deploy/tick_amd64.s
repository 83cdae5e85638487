#include "textflag.h"

// The popcount-and-fire kernel. Per block of 8 neurons, ZMM register i
// holds neuron i's popcounts of its mask words ANDed with the input,
// [p0 p1 p2 p3 m0 m1 m2 m3] (plus words, then minus words). Three levels
// of 128-bit-lane unpacks and shuffles add these into the 8 popcount
// differences in neuron order; the last level subtracts the minus sums.
// Operand order is Go's: the last operand is the destination, the one
// before it the first source.

// func tickBlocks4(masks []uint64, in *[4]uint64, thrFire, thrBand []int32, fire, band []uint8)
TEXT ·tickBlocks4(SB), NOSPLIT, $0-128
	MOVQ masks_base+0(FP), SI
	MOVQ in+24(FP), AX
	MOVQ thrFire_base+32(FP), R8
	MOVQ thrBand_base+56(FP), R9
	MOVQ fire_base+80(FP), DI
	MOVQ fire_len+88(FP), CX
	MOVQ band_base+104(FP), DX
	VBROADCASTI64X4 (AX), Z31 // [a0 a1 a2 a3 a0 a1 a2 a3]
	XORQ BX, BX
	TESTQ CX, CX
	JEQ  done

loop:
	VPANDQ   0(SI), Z31, Z0
	VPANDQ   64(SI), Z31, Z1
	VPANDQ   128(SI), Z31, Z2
	VPANDQ   192(SI), Z31, Z3
	VPANDQ   256(SI), Z31, Z4
	VPANDQ   320(SI), Z31, Z5
	VPANDQ   384(SI), Z31, Z6
	VPANDQ   448(SI), Z31, Z7
	VPOPCNTQ Z0, Z0
	VPOPCNTQ Z1, Z1
	VPOPCNTQ Z2, Z2
	VPOPCNTQ Z3, Z3
	VPOPCNTQ Z4, Z4
	VPOPCNTQ Z5, Z5
	VPOPCNTQ Z6, Z6
	VPOPCNTQ Z7, Z7

	// Level 1: lane L of A(2i,2i+1) = [Z(2i) pair-L sum, Z(2i+1) pair-L
	// sum] for the pairs (p0,p1) (p2,p3) (m0,m1) (m2,m3).
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

	// Level 2: S(0123) = [Z0,Z1 plus][Z0,Z1 minus][Z2,Z3 plus][Z2,Z3
	// minus], likewise S(4567). $0x88 picks lanes 0,2 of each source,
	// $0xDD lanes 1,3.
	VSHUFI64X2 $0x88, Z10, Z8, Z0
	VSHUFI64X2 $0xDD, Z10, Z8, Z1
	VPADDQ     Z1, Z0, Z0
	VSHUFI64X2 $0x88, Z14, Z12, Z2
	VSHUFI64X2 $0xDD, Z14, Z12, Z3
	VPADDQ     Z3, Z2, Z2

	// Level 3: all plus sums minus all minus sums, neurons 0-7 in order.
	VSHUFI64X2 $0x88, Z2, Z0, Z4
	VSHUFI64X2 $0xDD, Z2, Z0, Z5
	VPSUBQ     Z5, Z4, Z4
	VPMOVQD    Z4, Y16 // d, |d| <= 256

	// fire: d >= thrFire (predicate 5, not less than).
	VPCMPD    $5, (R8), Y16, K1
	// band: uint32(d-thrBand) < uint32(thrFire-thrBand) (predicate 1).
	VMOVDQU32 (R8), Y17
	VPSUBD    (R9), Y17, Y17
	VPSUBD    (R9), Y16, Y18
	VPCMPUD   $1, Y17, Y18, K2
	KMOVW     K1, R10
	KMOVW     K2, R11
	MOVB      R10, (DI)(BX*1)
	MOVB      R11, (DX)(BX*1)

	ADDQ $512, SI
	ADDQ $32, R8
	ADDQ $32, R9
	INCQ BX
	CMPQ BX, CX
	JLT  loop

done:
	VZEROUPPER
	RET
