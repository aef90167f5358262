// Events: the unit of data flowing from application hosts to ScrubCentral.
//
// An Event holds the two bounded system fields (request id + timestamp — the
// minimum metadata needed to support equi-joins and windowing, Section 3.1)
// and the user fields in schema order. Fields a query did not project are
// null on the wire, so projection genuinely shrinks what a host ships.

#ifndef SRC_EVENT_EVENT_H_
#define SRC_EVENT_EVENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/event/schema.h"
#include "src/event/value.h"

namespace scrub {

using RequestId = uint64_t;

class Event {
 public:
  Event() = default;
  Event(SchemaPtr schema, RequestId request_id, TimeMicros timestamp)
      : schema_(std::move(schema)),
        request_id_(request_id),
        timestamp_(timestamp),
        fields_(schema_ ? schema_->field_count() : 0) {}

  const SchemaPtr& schema() const { return schema_; }
  const std::string& type_name() const { return schema_->type_name(); }
  RequestId request_id() const { return request_id_; }
  TimeMicros timestamp() const { return timestamp_; }

  // Set by positional index (fast path used by the instrumented application).
  void SetField(size_t index, Value value) {
    fields_[index] = std::move(value);
  }
  // Set by name; kNotFound if the schema lacks the field, kInvalidArgument on
  // a type mismatch.
  Status SetFieldByName(std::string_view name, Value value);

  const Value& field(size_t index) const { return fields_[index]; }
  size_t field_count() const { return fields_.size(); }

  // Resolves user fields AND the system fields __request_id / __timestamp.
  // Returns Value::Null() for unknown names (queries are validated upstream,
  // so unknown here means "not projected").
  Value GetField(std::string_view name) const;

  // Verifies every set field conforms to its declared type.
  Status Validate() const;

  // Wire size in bytes: header + per-field payloads. Null (unprojected)
  // fields cost one tag byte.
  size_t WireSize() const;

  std::string ToString() const;

 private:
  SchemaPtr schema_;
  RequestId request_id_ = 0;
  TimeMicros timestamp_ = 0;
  std::vector<Value> fields_;
};

// Convenience builder used by the synthetic application:
//   Event e = EventBuilder(schema, rid, now)
//                 .Set("exchange_id", Value(int64_t{7}))
//                 .Set("bid_price", Value(1.25))
//                 .Build();
// Unknown names or type mismatches are recorded and surface from Build().
class EventBuilder {
 public:
  EventBuilder(SchemaPtr schema, RequestId request_id, TimeMicros timestamp)
      : event_(std::move(schema), request_id, timestamp) {}

  EventBuilder& Set(std::string_view name, Value value) {
    if (status_.ok()) {
      status_ = event_.SetFieldByName(name, std::move(value));
    }
    return *this;
  }

  // Consumes the builder's event; call once, as the last step of the chain.
  Result<Event> Build() {
    if (!status_.ok()) {
      return status_;
    }
    return std::move(event_);
  }

 private:
  Event event_;
  Status status_;
};

}  // namespace scrub

#endif  // SRC_EVENT_EVENT_H_
