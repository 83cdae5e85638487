package deploy

// tickBlocks4 is the popcount-and-fire kernel of a 4-word core
// (tick_amd64.s): block b covers neurons 8b..8b+7, whose plus and minus
// masks fill masks[64b:64b+64] in the arena's neuron-major order. For each
// neuron j it computes the popcount difference
//
//	d = |plus AND in| - |minus AND in|
//
// exactly as the scalar loop does, and sets bit j&7 of fire[b] when
// d >= thrFire[j] and of band[b] when uint32(d-thrBand[j]) <
// uint32(thrFire[j]-thrBand[j]). The block count is len(fire); masks,
// thresholds and band must cover it. It needs AVX512F, AVX512VL and
// AVX512_VPOPCNTDQ.
//
//go:noescape
func tickBlocks4(masks []uint64, in *[4]uint64, thrFire, thrBand []int32, fire, band []uint8)
