//go:build !amd64

package deploy

func tickBlocks4(masks []uint64, in *[4]uint64, thrFire, thrBand []int32, fire, band []uint8) {
	panic("deploy: no popcount kernel on this architecture")
}
