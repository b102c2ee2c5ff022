// A SIGPROF stack sampler to LD_PRELOAD into any program of this repo.
//
// Every 1 ms of the process's CPU time (ITIMER_PROF) it records the
// interrupted PC plus the return addresses found by walking the frame-
// pointer chain.  At exit it writes sampler.<pid>.txt in the working
// directory: one sample per line (hex addresses, innermost first), then
// the process's memory map for symbolize.py.  The walk is only as deep as
// the code keeps frame pointers, so build with -fno-omit-frame-pointer.
//
//   g++ -O2 -shared -fPIC -o sampler.so scripts/sample_profile/sampler.cc
//   LD_PRELOAD=$PWD/sampler.so .bench_build/perfbench --workload=scale_1m
//   python3 scripts/sample_profile/symbolize.py sampler.<pid>.txt

#include <pthread.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>

namespace {

constexpr int kMaxFrames = 48;
constexpr std::size_t kWords = std::size_t{1} << 21;  // 16 MiB, touched lazily.
std::uintptr_t buf[kWords];
volatile std::size_t used = 0;
std::uintptr_t stack_lo = 0, stack_hi = 0;  // The main thread's stack.

void OnSample(int, siginfo_t*, void* raw) {
  const auto* uc = static_cast<const ucontext_t*>(raw);
#if defined(__x86_64__)
  std::uintptr_t pc = uc->uc_mcontext.gregs[REG_RIP];
  std::uintptr_t sp = uc->uc_mcontext.gregs[REG_RSP];
  std::uintptr_t fp = uc->uc_mcontext.gregs[REG_RBP];
#elif defined(__aarch64__)
  std::uintptr_t pc = uc->uc_mcontext.pc, sp = uc->uc_mcontext.sp;
  std::uintptr_t fp = uc->uc_mcontext.regs[29];
#endif
  std::size_t n = used;
  if (n + kMaxFrames + 1 >= kWords) return;
  buf[n++] = pc;
  // Follow saved frame pointers only while they climb the main stack.
  const bool on_main = sp >= stack_lo && sp < stack_hi;
  for (int d = 0; on_main && d < kMaxFrames - 1; ++d) {
    if (fp <= sp || fp + 16 > stack_hi || fp % sizeof(void*) != 0) break;
    const auto* frame = reinterpret_cast<const std::uintptr_t*>(fp);
    if (frame[1] == 0) break;
    buf[n++] = frame[1];
    sp = fp;
    fp = frame[0];
  }
  buf[n++] = 0;  // End of sample.
  used = n;
}

__attribute__((constructor)) void Start() {
  pthread_attr_t attr;
  void* base = nullptr;
  std::size_t size = 0;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    pthread_attr_getstack(&attr, &base, &size);
    pthread_attr_destroy(&attr);
  }
  stack_lo = reinterpret_cast<std::uintptr_t>(base);
  stack_hi = stack_lo + size;
  struct sigaction sa = {};
  sa.sa_sigaction = OnSample;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGPROF, &sa, nullptr);
  const itimerval every_ms = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &every_ms, nullptr);
}

__attribute__((destructor)) void Stop() {
  const itimerval off = {};
  setitimer(ITIMER_PROF, &off, nullptr);
  char path[64];
  std::snprintf(path, sizeof(path), "sampler.%d.txt",
                static_cast<int>(getpid()));
  FILE* out = std::fopen(path, "w");
  if (out == nullptr) return;
  for (std::size_t i = 0; i < used; ++i) {
    if (buf[i] == 0) {
      std::fputc('\n', out);
    } else {
      std::fprintf(out, "%lx ", static_cast<unsigned long>(buf[i]));
    }
  }
  std::fputs("maps\n", out);
  if (FILE* maps = std::fopen("/proc/self/maps", "r")) {
    char line[512];
    while (std::fgets(line, sizeof(line), maps) != nullptr) {
      std::fputs(line, out);
    }
    std::fclose(maps);
  }
  std::fclose(out);
}

}  // namespace
