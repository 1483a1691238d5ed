package cl_test

import (
	"testing"

	haocl "github.com/haocl-project/haocl"
	"github.com/haocl-project/haocl/cl"
	"github.com/haocl-project/haocl/internal/mem"
)

const source = `
__kernel void axpb(__global float* x, const float a, const float b, const int n) {
    int i = get_global_id(0);
    if (i < n) x[i] = a * x[i] + b;
}
`

// TestOpenCLStyleHostProgram is a transliterated OpenCL C host program
// running through the cl facade on a two-node cluster.
func TestOpenCLStyleHostProgram(t *testing.T) {
	kernels := haocl.NewKernelRegistry()
	kernels.MustRegister(&haocl.KernelSpec{
		Name: "axpb", NumArgs: 4,
		Func: func(it *haocl.WorkItem, args []haocl.KernelArg) {
			i := it.GlobalID(0)
			if i >= args[3].Int() {
				return
			}
			x := args[0].Float32s()
			x[i] = args[1].Float32()*x[i] + args[2].Float32()
		},
	})
	lc, err := haocl.StartLocalCluster(haocl.LocalClusterSpec{
		UserID: "cl-test", GPUNodes: 2, Kernels: kernels, ExecWorkers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	platform := lc.Platform

	devices := cl.GetDeviceIDs(platform, cl.DEVICE_TYPE_GPU)
	if len(devices) != 2 {
		t.Fatalf("devices = %d", len(devices))
	}
	if len(cl.GetDeviceIDs(platform, cl.DEVICE_TYPE_FPGA)) != 0 {
		t.Fatal("phantom FPGAs")
	}

	context, err := cl.CreateContext(platform, devices)
	if err != nil {
		t.Fatal(err)
	}
	program, err := cl.CreateProgramWithSource(context, source)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.BuildProgram(program, "-cl-fast-relaxed-math"); err != nil {
		t.Fatalf("%v\n%s", err, cl.GetProgramBuildInfo(program))
	}
	if cl.GetProgramBuildInfo(program) == "" {
		t.Fatal("empty build log")
	}

	queue, err := cl.CreateCommandQueue(context, devices[0])
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	buf, err := cl.CreateBuffer(context, cl.MEM_READ_WRITE, 4*n)
	if err != nil {
		t.Fatal(err)
	}

	in := make([]float32, n)
	for i := range in {
		in[i] = float32(i)
	}
	wev, err := cl.EnqueueWriteBuffer(queue, buf, cl.BLOCKING, 0, mem.F32Bytes(in), nil)
	if err != nil {
		t.Fatal(err)
	}

	kern, err := cl.CreateKernel(program, "axpb")
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []any{buf, float32(3), float32(1), int32(n)} {
		if err := cl.SetKernelArg(kern, i, v); err != nil {
			t.Fatal(err)
		}
	}
	kev, err := cl.EnqueueNDRangeKernel(queue, kern, []int{n}, nil, []*cl.Event{wev})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.WaitForEvents([]*cl.Event{kev}); err != nil {
		t.Fatal(err)
	}

	out, _, err := cl.EnqueueReadBuffer(queue, buf, cl.BLOCKING, 0, 4*n, []*cl.Event{kev})
	if err != nil {
		t.Fatal(err)
	}
	got := mem.BytesF32(out)
	for i, v := range got {
		if want := 3*float32(i) + 1; v != want {
			t.Fatalf("x[%d] = %v, want %v", i, v, want)
		}
	}

	// Copy then verify through a second buffer.
	buf2, err := cl.CreateBuffer(context, cl.MEM_WRITE_ONLY, 4*n)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.EnqueueCopyBuffer(queue, buf, buf2, 0, 0, 4*n, nil); err != nil {
		t.Fatal(err)
	}
	out2, _, err := cl.EnqueueReadBuffer(queue, buf2, cl.BLOCKING, 0, 4*n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mem.BytesF32(out2)[10] != got[10] {
		t.Fatal("copy mismatch")
	}

	if err := cl.Finish(queue); err != nil {
		t.Fatal(err)
	}

	// Profiling counters are ordered like the spec requires.
	q := cl.GetEventProfilingInfo(kev, cl.PROFILING_COMMAND_QUEUED)
	s := cl.GetEventProfilingInfo(kev, cl.PROFILING_COMMAND_SUBMIT)
	st := cl.GetEventProfilingInfo(kev, cl.PROFILING_COMMAND_START)
	en := cl.GetEventProfilingInfo(kev, cl.PROFILING_COMMAND_END)
	if !(q <= s && s <= st && st < en) {
		t.Fatalf("profiling order broken: %d %d %d %d", q, s, st, en)
	}

	if err := cl.ReleaseCommandQueue(queue); err != nil {
		t.Fatal(err)
	}
}

// TestNonBlockingWriteMayReuseSlice pins the write ownership rule: a
// non-blocking EnqueueWriteBuffer never references caller memory, so the
// caller may overwrite its slice right after the call returns and the
// device still receives the bytes it passed. Chunks below and above the
// transport's bulk threshold cover both the copied and the by-reference
// payload paths.
func TestNonBlockingWriteMayReuseSlice(t *testing.T) {
	lc, err := haocl.StartLocalCluster(haocl.LocalClusterSpec{
		UserID: "cl-test", GPUNodes: 1, Kernels: haocl.NewKernelRegistry(), ExecWorkers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	devices := cl.GetDeviceIDs(lc.Platform, cl.DEVICE_TYPE_GPU)
	context, err := cl.CreateContext(lc.Platform, devices)
	if err != nil {
		t.Fatal(err)
	}
	queue, err := cl.CreateCommandQueue(context, devices[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1 << 10, 64 << 10} {
		const chunks = 8
		buf, err := cl.CreateBuffer(context, cl.MEM_READ_WRITE, int64(chunk*chunks))
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, chunk)
		for i := 0; i < chunks; i++ {
			for j := range data {
				data[j] = byte(i + 1)
			}
			if _, err := cl.EnqueueWriteBuffer(queue, buf, cl.NON_BLOCKING, int64(i*chunk), data, nil); err != nil {
				t.Fatal(err)
			}
			for j := range data {
				data[j] = 0xEE
			}
		}
		if err := cl.Finish(queue); err != nil {
			t.Fatal(err)
		}
		out, _, err := cl.EnqueueReadBuffer(queue, buf, cl.BLOCKING, 0, int64(chunk*chunks), nil)
		if err != nil {
			t.Fatal(err)
		}
		for off, b := range out {
			if want := byte(off/chunk + 1); b != want {
				t.Fatalf("chunk %d B: byte %d = %#x, want %#x", chunk, off, b, want)
			}
		}
	}
}
