package truenorth

// crossbarBlocks4 is the crossbar-and-fire kernel of a 4-word core that uses
// only weight entries 0 and 1 (tick_amd64.s). Block b covers neurons
// 8b..8b+7; the kernel reads the first 64 bytes of each neuron's arena row,
// its entry-0 and entry-1 masks. For each neuron j it computes the popcounts
// p0 and p1 of those masks ANDed with active and the membrane value before
// the fractional leak,
//
//	v = W0*p0 + W1*p1 + Base
//
// in int32 with wraparound, as the scalar loop does, and stores v in v[j].
// It sets bit j&7 of fire[b] when v >= Threshold, and of undecided[b] where
// fire leaves the spike undecided: a drawing neuron whose v >= Threshold and
// v+1 >= Threshold disagree, or any persistent neuron. It returns the sum of
// every p0 and p1, the blocks' synaptic events. The block count is
// len(blocks); masks, v, fire and undecided must cover it. It needs
// AVX512F, AVX512VL and AVX512_VPOPCNTDQ.
//
//go:noescape
func crossbarBlocks4(masks []uint64, active *[4]uint64, blocks []kernelBlock, v []int32, fire, undecided []uint8) (syn int64)
