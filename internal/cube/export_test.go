package cube

// withChunkLen runs f with InferCSV cutting its input into chunks of n
// bytes, each then one line or a few.
func withChunkLen(n int, f func()) {
	defer func(old int) { chunkLen = old }(chunkLen)
	chunkLen = n
	f()
}
