// Machine-context capture and transfer.
//
// StackThreads/MP's suspend/restart are, at bottom, "save callee-saved
// registers + SP somewhere, load someone else's, continue there" -- the
// same contract a procedure return obeys (Section 3.2: "a return sequence
// is just a general mechanism that loads some registers by whatever values
// are written in its stack frame and jumps to whatever location is written
// in the return address slot").  On the paper's postprocessed ABI this is
// done by patching return-address / saved-FP slots of compiler-generated
// frames; on stock x86-64 C++ we instead perform the equivalent transfer
// with ~20 instructions of assembly (context_x86_64.S), saving the six
// SysV callee-saved registers on the source stack and switching RSP.
//
// Return prediction: a fork child's entry *returns* to st_ctx_fork, whose
// tail resumes the parent with `ret` when the child completed inline, so
// the common fork cycle is two properly nested call/ret pairs and leaves
// the return-stack buffer balanced.  Every other switch resumes with a
// BTB-predicted indirect jmp (context_x86_64.S explains the choice).
//
// The `msg` word carried across a switch implements "run this on my
// behalf once you are off my stack": a suspending thread hands its
// unlock/publish action to the context it switches to, which runs it
// before continuing.  This closes the classic lost-wakeup race without
// holding locks across a context switch.
#pragma once

#include <cstddef>
#include <cstdint>

// ThreadSanitizer keeps a per-OS-thread shadow stack that our context
// switches silently invalidate: a continuation can unwind on a thread
// that never pushed its frames, drifting the shadow stack until TSan
// SEGVs inside its own stack-depot hashing.  Under TSan every logical
// thread therefore gets a TSan "fiber", and every switch site announces
// the transfer via __tsan_switch_to_fiber.  Native builds compile all of
// this away (fields and calls are gated, not stubbed).
#if defined(__SANITIZE_THREAD__)
#define ST_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ST_TSAN_FIBERS 1
#endif
#endif
#ifndef ST_TSAN_FIBERS
#define ST_TSAN_FIBERS 0
#endif

#if ST_TSAN_FIBERS
extern "C" {
void* __tsan_get_current_fiber(void);
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
}
#endif

namespace st {

/// A captured machine context: everything lives on the context's own
/// stack; only the stack pointer is held here.
struct MachineContext {
  void* sp = nullptr;
#if ST_TSAN_FIBERS
  void* fiber = nullptr;  ///< TSan fiber backing this context's shadow stack
#endif
};

/// Action executed by the destination context immediately after a switch,
/// while the source context's stack is already quiescent.
struct SwitchMsg {
  void (*run)(void*) = nullptr;
  void* arg = nullptr;
#if ST_TSAN_FIBERS
  /// A fiber whose logical thread has exited: the destination destroys it
  /// (a fiber cannot destroy itself while still running on it).
  void* dead_fiber = nullptr;
#endif
};

extern "C" {

/// Saves the current context into *save_sp and continues at target_sp
/// (previously produced by st_ctx_swap or st_ctx_prepare).  Returns, in
/// the *resumed* context, the msg pointer passed by whoever switched back.
void* st_ctx_swap(void** save_sp, void* target_sp, void* msg) noexcept;

/// Entry signature for a fresh context: fn(msg, arg).  `msg` is the
/// SwitchMsg* carried by the switch that first entered the context; `arg`
/// is the pointer given to st_ctx_prepare.  fn must never return -- a
/// finished computation leaves by switching to another context.
using ContextEntry = void (*)(void* msg, void* arg);

/// What a fork child's entry returns to st_ctx_fork when it completed
/// inline: the context saved by that st_ctx_fork call, and the msg it
/// runs on arrival.  Returned in RAX:RDX (two INTEGER eightbytes).
struct ForkExit {
  void* sp;
  SwitchMsg* msg;
};

/// Entry signature for st_ctx_fork's child: fn(arg).  It either returns
/// to st_ctx_fork (see there) or leaves by st_ctx_swap and never returns.
using ForkEntry = ForkExit (*)(void* arg);

/// Fused "save me + enter a fresh child" switch, the fork fast path:
/// saves the current context into *save_sp (same layout as st_ctx_swap),
/// adopts the empty stack ending at stack_top and calls fn(arg) directly
/// -- no st_ctx_prepare frame, no boot trampoline.  fn may return only
/// the context this call saved: st_ctx_fork then restores it with `ret`,
/// which the parent's own call predicts, and appears to return the msg
/// (which must not live on the child's stack).  When fn instead leaves
/// by st_ctx_swap, a later st_ctx_swap to the saved context makes
/// st_ctx_fork appear to return the msg carried by that switch.
void* st_ctx_fork(void** save_sp, void* stack_top, ForkEntry fn, void* arg) noexcept;

}  // extern "C"

static_assert(sizeof(ForkExit) == 16, "ForkExit must come back in RAX:RDX");

/// Builds an initial context on [stack_base, stack_base+size): returns the
/// sp to pass to st_ctx_swap so that execution enters fn(msg, arg) on the
/// new stack with correct SysV alignment.
void* st_ctx_prepare(void* stack_base, std::size_t size, ContextEntry fn, void* arg) noexcept;

/// Convenience wrappers.
inline SwitchMsg* ctx_swap(MachineContext& save, void* target_sp, SwitchMsg* msg) noexcept {
  return static_cast<SwitchMsg*>(st_ctx_swap(&save.sp, target_sp, msg));
}

/// Runs a pending cross-context action, if any.  Every resume point
/// (after a swap returns) must call this before touching shared state.
inline void run_switch_msg(SwitchMsg* msg) noexcept {
  if (msg == nullptr) return;
#if ST_TSAN_FIBERS
  if (msg->dead_fiber != nullptr) {
    __tsan_destroy_fiber(msg->dead_fiber);
    msg->dead_fiber = nullptr;
  }
#endif
  if (msg->run != nullptr) msg->run(msg->arg);
}

}  // namespace st
