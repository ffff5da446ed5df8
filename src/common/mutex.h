#ifndef HDIDX_COMMON_MUTEX_H_
#define HDIDX_COMMON_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace hdidx::common {

/// std::mutex with Clang Thread Safety Analysis annotations.
///
/// The standard library's mutex carries no capability attributes, so
/// HDIDX_GUARDED_BY fields protected by a raw std::mutex are invisible to
/// -Wthread-safety. Every lock-owning class in this repo holds one of
/// these instead; under GCC the annotations vanish and the wrapper is a
/// zero-overhead std::mutex.
///
/// Both spellings of the lock interface are provided: Lock/Unlock for
/// explicit (annotated) call sites, and lowercase lock/unlock so the type
/// satisfies BasicLockable for CondVar below.
class HDIDX_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() HDIDX_ACQUIRE() { mu_.lock(); }
  void Unlock() HDIDX_RELEASE() { mu_.unlock(); }

  // BasicLockable spelling (CondVar::Wait passes the Mutex straight to
  // std::condition_variable_any).
  void lock() HDIDX_ACQUIRE() { mu_.lock(); }
  void unlock() HDIDX_RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

/// RAII lock for Mutex (lock_guard with scoped-capability annotations).
class HDIDX_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) HDIDX_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() HDIDX_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

/// Condition variable paired with Mutex.
///
/// Built on condition_variable_any (the Mutex wrapper is not a
/// std::mutex, so the plain condition_variable's unique_lock interface
/// doesn't apply). Wait requires the mutex held, releases it while
/// blocked, and holds it again on return — the analysis sees the
/// net-neutral REQUIRES contract; the release/reacquire inside the
/// standard library is invisible to it, which is exactly right.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified (spurious wakeups possible — always call from a
  /// `while (!condition)` loop). `mu` must be held on entry and is held on
  /// return. Deliberately predicate-less: the analysis cannot see that a
  /// predicate lambda runs with `mu` held, so callers keep the condition
  /// re-check in their own (annotated) scope.
  void Wait(Mutex& mu) HDIDX_REQUIRES(mu) { cv_.wait(mu); }

  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace hdidx::common

#endif  // HDIDX_COMMON_MUTEX_H_
