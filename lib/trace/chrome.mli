(** Chrome trace-event JSON export.

    Produces the "JSON object format" understood by Perfetto and
    [chrome://tracing]: spans become complete events ([ph:"X"]), instants
    [ph:"i"], message lifecycles become flow event pairs ([ph:"s"] /
    [ph:"f"]) drawn as arrows between lanes. Tracks and lanes are named
    with metadata events and sorted by their fixed ids, and events are
    stable-sorted by timestamp, so the same timeline always exports
    byte-identical JSON. The top-level [otherData.events] field
    counts the timeline's events; the file holds every one of them. *)

val to_json : Event.timeline -> string
