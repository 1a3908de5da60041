//go:build !amd64 || purego

package quant

// useAVX2 and useVNNI are false where the assembly kernels are not
// built, so nothing below is ever called.
var useAVX2, useVNNI = false, false

func dotPacked8(w *byte, stride, chunks int, x, tail *int8, groups int, out *int32) {
	panic("quant: no assembly kernel in this build")
}

func dotPacked8VNNI(w *byte, stride, chunks int, x, tail *int8, groups int, out *int32) {
	panic("quant: no assembly kernel in this build")
}

func dotPackedTile(w *byte, stride, chunks int, xs *[BatchTile]*int8, tail *int8, rows int, out *int32) {
	panic("quant: no assembly kernel in this build")
}

func dotPackedTileVNNI(w *byte, stride, chunks int, xs *[BatchTile]*int8, tail *int8, rows int, out *int32) {
	panic("quant: no assembly kernel in this build")
}

func dequant8(acc *int32, off int32, xs float32, scales, bias *float32, groups int, dst *float32) {
	panic("quant: no assembly kernel in this build")
}
