// Package cl is an OpenCL-flavored facade over HaoCL: every function
// carries the name of the OpenCL 1.2 API call it forwards, so host
// programs written against the C API transliterate line by line. This is
// the usability contract of the paper — "support for the same application
// programming interfaces (APIs) as OpenCL ... which significantly reduces
// the integration and migration overhead of current applications" (§I).
//
//	cl.GetDeviceIDs(platform, cl.DEVICE_TYPE_GPU)
//	cl.CreateContext(platform, devices)
//	cl.CreateCommandQueue(ctx, dev)
//	cl.CreateBuffer(ctx, cl.MEM_READ_WRITE, size)
//	cl.CreateProgramWithSource(ctx, source)
//	cl.BuildProgram(program, "")
//	cl.CreateKernel(program, "matmul")
//	cl.SetKernelArg(kernel, 0, buf)
//	cl.EnqueueWriteBuffer(queue, buf, cl.BLOCKING, 0, data, nil)
//	cl.EnqueueNDRangeKernel(queue, kernel, []int{n}, nil, nil)
//	cl.EnqueueReadBuffer(queue, buf, cl.BLOCKING, 0, n, nil)
//	cl.Finish(queue)
//	cl.GetEventProfilingInfo(event, cl.PROFILING_COMMAND_END)
//
// Commands are pipelined: an enqueue returns once its request is on its
// way to the node, and the returned event completes when the node answers.
// WaitForEvents, Finish and GetEventProfilingInfo wait for that answer.
// The blocking flag only matters for reads, which always block for their
// data. A write copies the caller's bytes before it returns, blocking or
// not, so the caller may reuse the slice at once — more than OpenCL
// promises for a non-blocking clEnqueueWriteBuffer.
package cl

import (
	haocl "github.com/haocl-project/haocl"
)

// Object types, aliased from the primary API.
type (
	Platform = haocl.Platform
	Device   = haocl.Device
	Context  = haocl.Context
	Queue    = haocl.Queue
	Mem      = haocl.Buffer
	Program  = haocl.Program
	Kernel   = haocl.Kernel
	Event    = haocl.Event
)

// Device type selectors (CL_DEVICE_TYPE_*).
const (
	DEVICE_TYPE_ALL  = haocl.AnyDevice
	DEVICE_TYPE_CPU  = haocl.CPU
	DEVICE_TYPE_GPU  = haocl.GPU
	DEVICE_TYPE_FPGA = haocl.FPGA // accelerator class in CL terms
)

// Blocking-mode flags for enqueue operations.
const (
	BLOCKING     = true
	NON_BLOCKING = false
)

// MemFlags mirrors cl_mem_flags. The simulated devices hold every buffer
// in their own memory, so the flags are accepted for source compatibility
// and recorded but do not change behavior.
type MemFlags uint32

// Memory flags (CL_MEM_*).
const (
	MEM_READ_WRITE MemFlags = 1 << iota
	MEM_WRITE_ONLY
	MEM_READ_ONLY
	MEM_COPY_HOST_PTR
)

// ProfilingParam selects a clGetEventProfilingInfo counter.
type ProfilingParam uint8

// Profiling counters (CL_PROFILING_COMMAND_*), in virtual nanoseconds.
const (
	PROFILING_COMMAND_QUEUED ProfilingParam = iota + 1
	PROFILING_COMMAND_SUBMIT
	PROFILING_COMMAND_START
	PROFILING_COMMAND_END
)

// GetDeviceIDs lists the unified platform's devices of the given type
// (clGetDeviceIDs).
func GetDeviceIDs(p *Platform, t haocl.DeviceType) []*Device {
	return p.Devices(t)
}

// CreateContext builds a context over devices (clCreateContext).
func CreateContext(p *Platform, devices []*Device) (*Context, error) {
	return p.CreateContext(devices)
}

// CreateCommandQueue creates an in-order profiling queue on one device
// (clCreateCommandQueue).
func CreateCommandQueue(ctx *Context, dev *Device) (*Queue, error) {
	return ctx.CreateQueue(dev)
}

// CreateBuffer allocates a memory object (clCreateBuffer). Flags are
// accepted for source compatibility.
func CreateBuffer(ctx *Context, _ MemFlags, size int64) (*Mem, error) {
	return ctx.CreateBuffer(size)
}

// CreateProgramWithSource wraps OpenCL C source
// (clCreateProgramWithSource).
func CreateProgramWithSource(ctx *Context, source string) (*Program, error) {
	return ctx.CreateProgram(source)
}

// BuildProgram compiles the program on every node in its context
// (clBuildProgram). Options are accepted for source compatibility.
func BuildProgram(p *Program, _ string) error {
	return p.Build()
}

// GetProgramBuildInfo returns the accumulated build log
// (clGetProgramBuildInfo with CL_PROGRAM_BUILD_LOG).
func GetProgramBuildInfo(p *Program) string {
	return p.BuildLog()
}

// CreateKernel instantiates a kernel from a built program
// (clCreateKernel).
func CreateKernel(p *Program, name string) (*Kernel, error) {
	return p.CreateKernel(name)
}

// SetKernelArg binds one kernel argument (clSetKernelArg): *Mem for
// global/constant pointers, haocl.LocalSpace for local pointers, and
// fixed-size scalars for by-value parameters.
func SetKernelArg(k *Kernel, index int, value any) error {
	return k.SetArg(index, value)
}

// EnqueueWriteBuffer transfers host data to a buffer
// (clEnqueueWriteBuffer). data is copied before the call returns, so it
// may be reused immediately even when the write does not block.
func EnqueueWriteBuffer(q *Queue, b *Mem, _ bool, offset int64, data []byte, waits []*Event) (*Event, error) {
	return q.EnqueueWrite(b, offset, data, waits...)
}

// EnqueueReadBuffer transfers buffer contents back to the host
// (clEnqueueReadBuffer).
func EnqueueReadBuffer(q *Queue, b *Mem, _ bool, offset, size int64, waits []*Event) ([]byte, *Event, error) {
	return q.EnqueueRead(b, offset, size, waits...)
}

// EnqueueCopyBuffer copies between buffers on the queue's device
// (clEnqueueCopyBuffer).
func EnqueueCopyBuffer(q *Queue, src, dst *Mem, srcOffset, dstOffset, size int64, waits []*Event) (*Event, error) {
	return q.EnqueueCopy(src, dst, srcOffset, dstOffset, size, waits...)
}

// EnqueueNDRangeKernel launches a kernel over the NDRange
// (clEnqueueNDRangeKernel).
func EnqueueNDRangeKernel(q *Queue, k *Kernel, global, local []int, waits []*Event) (*Event, error) {
	return q.EnqueueKernel(k, global, local, waits, nil)
}

// Finish blocks until the queue drains (clFinish).
func Finish(q *Queue) error {
	_, err := q.Finish()
	return err
}

// WaitForEvents blocks until every event completes (clWaitForEvents) and
// reports the first failure.
func WaitForEvents(events []*Event) error {
	for _, e := range events {
		if err := e.Wait(); err != nil {
			return err
		}
	}
	return nil
}

// GetEventProfilingInfo returns one virtual-time profiling counter
// (clGetEventProfilingInfo).
func GetEventProfilingInfo(e *Event, param ProfilingParam) int64 {
	p := e.Profile()
	switch param {
	case PROFILING_COMMAND_QUEUED:
		return p.Queued
	case PROFILING_COMMAND_SUBMIT:
		return p.Submit
	case PROFILING_COMMAND_START:
		return p.Start
	default:
		return p.End
	}
}

// ReleaseCommandQueue frees the remote queue object
// (clReleaseCommandQueue).
func ReleaseCommandQueue(q *Queue) error {
	return q.Release()
}
