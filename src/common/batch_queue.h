#ifndef PRIVSHAPE_COMMON_BATCH_QUEUE_H_
#define PRIVSHAPE_COMMON_BATCH_QUEUE_H_

#include <cstddef>
#include <deque>
#include <utility>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace privshape {

/// Bounded blocking MPSC queue for handing batches from producers to a
/// drainer.
///
/// The collector's streaming ingestion path runs many report-producing
/// workers against exactly one aggregation drainer per queue — the
/// single-consumer contract is what lets Push skip the consumer wakeup
/// unless the queue was empty (the edge-triggered notify below). Any
/// number of producers is fine. A full queue blocks Push — that is the
/// backpressure that keeps a fast fleet from buffering unbounded report
/// batches ahead of a slow drainer.
///
/// Shutdown protocol: producers finish, the coordinator calls Close(),
/// the consumer drains the remaining items and then sees Pop return
/// false. Items pushed before Close are never lost.
template <typename T>
class BatchQueue {
 public:
  /// `capacity` is the maximum number of queued items; 0 means unbounded.
  explicit BatchQueue(size_t capacity) : capacity_(capacity) {}

  BatchQueue(const BatchQueue&) = delete;
  BatchQueue& operator=(const BatchQueue&) = delete;

  /// Blocks while the queue is full. Returns false (dropping `item`) only
  /// when the queue was closed.
  bool Push(T item) PS_EXCLUDES(mu_) {
    bool was_empty;
    {
      MutexLock lock(&mu_);
      while (!closed_ && capacity_ != 0 && items_.size() >= capacity_) {
        not_full_.Wait(&mu_);
      }
      if (closed_) return false;
      was_empty = items_.empty();
      items_.push_back(std::move(item));
    }
    // Edge-triggered: the (single) consumer can only be asleep when it
    // saw an empty queue, so steady-state pushes skip the syscall and the
    // consumer drains whole bursts per wakeup instead of one item each.
    if (was_empty) not_empty_.NotifyOne();
    return true;
  }

  /// Blocks while the queue is empty and open. Returns false only when the
  /// queue is closed AND fully drained. Single consumer at a time.
  bool Pop(T* out) PS_EXCLUDES(mu_) {
    bool was_full;
    {
      MutexLock lock(&mu_);
      while (!closed_ && items_.empty()) {
        not_empty_.Wait(&mu_);
      }
      if (items_.empty()) return false;
      was_full = capacity_ != 0 && items_.size() >= capacity_;
      *out = std::move(items_.front());
      items_.pop_front();
    }
    // Producers only sleep on a full queue; NotifyAll (not One) because
    // several may be blocked on the same full->not-full edge.
    if (was_full) not_full_.NotifyAll();
    return true;
  }

  /// Wakes every blocked Push/Pop; queued items remain poppable.
  void Close() PS_EXCLUDES(mu_) {
    {
      MutexLock lock(&mu_);
      closed_ = true;
    }
    not_full_.NotifyAll();
    not_empty_.NotifyAll();
  }

  size_t capacity() const { return capacity_; }

  /// Items currently queued (a racy snapshot under concurrency).
  size_t size() const PS_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return items_.size();
  }

 private:
  mutable Mutex mu_;
  CondVar not_full_;
  CondVar not_empty_;
  std::deque<T> items_ PS_GUARDED_BY(mu_);
  const size_t capacity_;
  bool closed_ PS_GUARDED_BY(mu_) = false;
};

}  // namespace privshape

#endif  // PRIVSHAPE_COMMON_BATCH_QUEUE_H_
