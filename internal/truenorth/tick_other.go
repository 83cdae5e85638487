//go:build !amd64

package truenorth

func crossbarBlocks4(masks []uint64, active *[4]uint64, blocks []kernelBlock, v []int32, fire, undecided []uint8) (syn int64) {
	panic("truenorth: no crossbar kernel on this architecture")
}
