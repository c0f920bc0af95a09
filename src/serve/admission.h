// Bounded admission control for the rumor_serve daemon's simulation jobs.
//
// The serving loop is thread-per-connection, but simulations contend for one
// machine's cores (threaded jobs queue on the shared TrialPool), so the
// number allowed to run — and the number allowed to wait for a slot — must
// both be bounded or a request burst turns into unbounded queueing. The gate
// implements the classic two-knob policy: up to `max_active` tickets are out
// at once; up to `max_waiting` further callers block until a ticket frees;
// anything beyond is rejected immediately, and the server turns that verdict
// into a loud 429-style {"record":"serve_reject"} record instead of silent
// latency. Tickets are RAII, so an unwinding job (engine exception, dead
// client) can never leak its slot.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>

namespace rumor {

class AdmissionGate {
 public:
  // max_active >= 1 concurrent jobs; max_waiting >= 0 callers parked beyond
  // them.
  AdmissionGate(int max_active, int max_waiting);

  class Ticket {
   public:
    Ticket() = default;
    Ticket(Ticket&& other) noexcept;
    Ticket& operator=(Ticket&& other) noexcept;
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;
    ~Ticket();

   private:
    friend class AdmissionGate;
    explicit Ticket(AdmissionGate* gate) : gate_(gate) {}
    AdmissionGate* gate_ = nullptr;
  };

  // Blocks while the queue has room, returns std::nullopt when both the
  // active slots and the waiting room are full — the caller must answer with
  // a rejection, not wait.
  std::optional<Ticket> admit();

  struct Stats {
    int active = 0;
    int waiting = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
  };
  Stats stats() const;

 private:
  void release();

  const int max_active_;
  const int max_waiting_;
  mutable std::mutex mutex_;
  std::condition_variable slot_freed_;
  int active_ = 0;
  int waiting_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
};

}  // namespace rumor
