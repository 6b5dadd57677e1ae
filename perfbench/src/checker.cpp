#include "checker.hpp"

#include <cstdio>
#include <cstring>

#include "common.hpp"

namespace perfbench {

namespace {
constexpr uint64_t kQueueSalt = 0x51554555453136ull;  // "QUEUE16"
constexpr char kHex[] = "0123456789abcdef";

void put_hex(std::string& s, uint64_t v) {
  for (int i = 15; i >= 0; --i) s.push_back(kHex[(v >> (i * 4)) & 15]);
}

bool get_hex(std::string_view s, uint64_t* v) {
  if (s.size() != 16) return false;
  uint64_t x = 0;
  for (char c : s) {
    const char* p = std::strchr(kHex, c);
    if (p == nullptr || c == '\0') return false;
    x = (x << 4) | static_cast<uint64_t>(p - kHex);
  }
  *v = x;
  return true;
}

// Filler bytes are printable ('0'..'o'): never a space, CR or LF, so values
// travel through the memcached text protocol unchanged. They are made and
// summed eight at a time.
void fill(std::string& s, uint64_t key, uint64_t version, std::size_t n,
          uint64_t* sum) {
  uint64_t x = mix64(key * 0x9e3779b97f4a7c15ull ^ version);
  uint64_t h = 0xcbf29ce484222325ull;
  char buf[8];
  for (std::size_t i = 0; i < n; i += 8) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const uint64_t w = ((x ^ (x >> 29)) & 0x3f3f3f3f3f3f3f3full) + 0x3030303030303030ull;
    h = (h ^ w) * 0x100000001b3ull;
    std::memcpy(buf, &w, sizeof buf);
    s.append(buf, n - i < 8 ? n - i : 8);
  }
  *sum = h;
}
}  // namespace

// ---- queue ---------------------------------------------------------------------------

QItem make_qitem(uint64_t seq) { return QItem{seq, mix64(seq ^ kQueueSalt)}; }

bool qitem_intact(const QItem& v) { return v.tag == mix64(v.seq ^ kQueueSalt); }

std::string check_queue_head(const QItem& got, uint64_t expect_seq) {
  if (!qitem_intact(got)) return "queue: torn value";
  if (got.seq != expect_seq) {
    return "queue: expected sequence " + std::to_string(expect_seq) + ", got " +
           std::to_string(got.seq);
  }
  return "";
}

std::string check_queue_recovery(const QueueModel& m,
                                 const std::vector<QItem>& contents,
                                 uint64_t synced_ops, uint64_t issued_ops) {
  if (contents.empty()) return "queue: recovered queue is empty";
  for (std::size_t i = 0; i < contents.size(); ++i) {
    if (!qitem_intact(contents[i])) return "queue: recovered a torn value";
    if (contents[i].seq != contents[0].seq + i) {
      return "queue: recovered sequence is not contiguous at position " +
             std::to_string(i);
    }
  }
  const uint64_t head = contents.front().seq;
  const uint64_t tail = contents.back().seq + 1;
  // head = L/2 dequeues and tail - preload = (L+1)/2 enqueues pin L down.
  const uint64_t enq = tail >= m.preload ? tail - m.preload : 0;
  const uint64_t l = head + enq;
  if (tail < m.preload || (enq != head && enq != head + 1) ||
      m.head_after(l) != head || m.tail_after(l) != tail) {
    return "queue: recovered [" + std::to_string(head) + ", " +
           std::to_string(tail) + ") is no prefix state";
  }
  if (l < synced_ops) {
    return "queue: recovered prefix of " + std::to_string(l) +
           " operations loses synced ones (synced " +
           std::to_string(synced_ops) + ")";
  }
  if (l > issued_ops) {
    return "queue: recovered prefix of " + std::to_string(l) +
           " operations exceeds the " + std::to_string(issued_ops) + " issued";
  }
  return "";
}

// ---- key-value values ------------------------------------------------------------------

std::string key_of(uint64_t k) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "key%08llu", static_cast<unsigned long long>(k));
  return buf;
}

bool parse_key(std::string_view s, uint64_t* k) {
  if (s.size() != 11 || s.substr(0, 3) != "key") return false;
  uint64_t v = 0;
  for (char c : s.substr(3)) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *k = v;
  return true;
}

// Layout: "<key>|<version hex16>|<checksum hex16>|<filler>", 1000 bytes.
std::string make_value(uint64_t key, uint64_t version) {
  std::string s;
  s.reserve(kValueBytes);
  s += key_of(key);
  s.push_back('|');
  put_hex(s, version);
  s.push_back('|');
  const std::size_t sum_at = s.size();
  s.append(16, '0');
  s.push_back('|');
  uint64_t sum = 0;
  fill(s, key, version, kValueBytes - s.size(), &sum);
  std::string hex;
  put_hex(hex, sum);
  s.replace(sum_at, 16, hex);
  return s;
}

std::string check_value(std::string_view got, uint64_t key, uint64_t* version) {
  if (got.size() != kValueBytes) {
    return "value of " + std::to_string(got.size()) + " bytes";
  }
  uint64_t k = 0, v = 0, sum = 0;
  if (!parse_key(got.substr(0, 11), &k) || got[11] != '|' ||
      !get_hex(got.substr(12, 16), &v) || got[28] != '|' ||
      !get_hex(got.substr(29, 16), &sum) || got[45] != '|') {
    return "torn value: header does not parse";
  }
  if (k != key) {
    return "value of key " + std::to_string(k) + " returned for key " +
           std::to_string(key);
  }
  if (make_value(k, v) != got) return "torn value: checksum or filler mismatch";
  *version = v;
  return "";
}

std::string check_read(std::string_view got, uint64_t key, uint64_t lo,
                       uint64_t hi) {
  uint64_t v = 0;
  std::string err = check_value(got, key, &v);
  if (!err.empty()) return err;
  if (v < lo) {
    return "key " + std::to_string(key) + ": version " + std::to_string(v) +
           " older than acknowledged " + std::to_string(lo);
  }
  if (v > hi) {
    return "key " + std::to_string(key) + ": version " + std::to_string(v) +
           " was never written (last issued " + std::to_string(hi) + ")";
  }
  return "";
}

// ---- self-test ---------------------------------------------------------------------------

std::vector<std::string> checker_selftest() {
  std::vector<std::string> bad;
  auto expect = [&bad](bool accepted, bool want, const char* what) {
    if (accepted != want) {
      bad.push_back(std::string(what) + (want ? " was rejected" : " was accepted"));
    }
  };

  // Queue: FIFO dequeues.
  expect(check_queue_head(make_qitem(7), 7).empty(), true, "in-order dequeue");
  expect(check_queue_head(make_qitem(8), 7).empty(), false, "reordered dequeue");
  QItem torn = make_qitem(7);
  torn.tag ^= 1;
  expect(check_queue_head(torn, 7).empty(), false, "torn queue value");

  // Queue recovery: preload 4, then enq 4, deq 0, enq 5, deq 1 (L = 4).
  QueueModel qm{4};
  auto range = [](uint64_t a, uint64_t b) {
    std::vector<QItem> v;
    for (uint64_t s = a; s < b; ++s) v.push_back(make_qitem(s));
    return v;
  };
  expect(check_queue_recovery(qm, range(2, 6), 4, 6).empty(), true,
         "recovered prefix after sync");
  expect(check_queue_recovery(qm, range(2, 7), 4, 6).empty(), true,
         "recovered prefix with an unsynced enqueue");
  expect(check_queue_recovery(qm, range(1, 6), 4, 6).empty(), false,
         "queue losing a synced dequeue");
  expect(check_queue_recovery(qm, range(1, 5), 4, 6).empty(), false,
         "queue losing synced operations");
  expect(check_queue_recovery(qm, range(3, 8), 4, 6).empty(), false,
         "queue holding operations never issued");
  auto gap = range(2, 6);
  gap.erase(gap.begin() + 1);
  expect(check_queue_recovery(qm, gap, 0, 6).empty(), false,
         "queue with a lost middle item");
  auto swapped = range(2, 6);
  std::swap(swapped[1], swapped[2]);
  expect(check_queue_recovery(qm, swapped, 0, 6).empty(), false,
         "queue recovered out of order");

  // Key-value reads and recovery.
  const std::string v5 = make_value(42, 5);
  expect(check_read(v5, 42, 5, 5).empty(), true, "read of the acknowledged version");
  expect(check_read(v5, 42, 6, 7).empty(), false, "lost acknowledged write");
  expect(check_read(v5, 42, 1, 4).empty(), false, "version never written");
  expect(check_read(make_value(43, 5), 42, 1, 9).empty(), false,
         "value of another key");
  std::string t = v5;
  t[500] = t[500] == '0' ? '1' : '0';
  expect(check_read(t, 42, 1, 9).empty(), false, "torn value (filler)");
  t = v5;
  t.replace(600, 400, make_value(42, 6).substr(600));
  expect(check_read(t, 42, 1, 9).empty(), false, "torn value (two versions)");
  expect(check_read(v5.substr(0, 999), 42, 1, 9).empty(), false,
         "short value");
  return bad;
}

}  // namespace perfbench
