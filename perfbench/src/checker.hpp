// The benchmark's own model of what each workload wrote, and the checks that
// hold the program's outputs to it. Nothing here calls into the program.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// ---- queue-16b ----------------------------------------------------------------------

/// The 16-byte queue value: a sequence number and a tag derived from it.
struct QItem {
  uint64_t seq;
  uint64_t tag;
};
QItem make_qitem(uint64_t seq);
bool qitem_intact(const QItem& v);

/// After `preload` enqueues, operation j of the stream is an enqueue of
/// sequence preload + j/2 when j is even and a dequeue when j is odd.
/// The queue after the first L operations holds [L/2, preload + (L+1)/2).
struct QueueModel {
  uint64_t preload = 0;
  uint64_t head_after(uint64_t ops) const { return ops / 2; }
  uint64_t tail_after(uint64_t ops) const { return preload + (ops + 1) / 2; }
};

/// A dequeue must return the model's head; "" when it does.
std::string check_queue_head(const QItem& got, uint64_t expect_seq);

/// The recovered contents (front to back) must equal the model's state after
/// some prefix of L operations with synced_ops <= L <= issued_ops.
std::string check_queue_recovery(const QueueModel& m,
                                 const std::vector<QItem>& contents,
                                 uint64_t synced_ops, uint64_t issued_ops);

// ---- kv-ycsba-1k and server-ack-1k ----------------------------------------------

constexpr std::size_t kValueBytes = 1000;

std::string key_of(uint64_t k);
/// Parses a key written by key_of; false for anything else.
bool parse_key(std::string_view s, uint64_t* k);

/// A 1000-byte printable value encoding its key, a version and a checksum
/// over a filler derived from both.
std::string make_value(uint64_t key, uint64_t version);

/// Decodes and verifies a value read back for `key`. Returns "" and sets
/// *version when the value is intact and belongs to `key`.
std::string check_value(std::string_view got, uint64_t key, uint64_t* version);

/// A read of `key` must return an intact value of that key whose version lies
/// in [lo, hi]: lo is the last version acknowledged before the read began,
/// hi the last version issued when it returned.
std::string check_read(std::string_view got, uint64_t key, uint64_t lo,
                       uint64_t hi);

// ---- self-test --------------------------------------------------------------------------

/// Feeds every checker accepted and broken histories. Returns one line per
/// case that was judged wrongly (empty when the checkers are sound).
std::vector<std::string> checker_selftest();

}  // namespace perfbench
