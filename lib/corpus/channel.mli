(** The unbounded channel of Concurrent Haskell, written in the object
    language — the paper's §4 claim ("using only MVars, many complex
    datatypes for concurrent communication can be built, including typed
    channels, semaphores and so on") made executable and model-checkable.

    A channel value is [Chan readEnd writeEnd]; the stream cells are
    [Item v rest] under MVars. [readChan] follows the §5.2 discipline: the
    read-end MVar is restored if the blocking read is interrupted, so a
    killed reader never wedges the channel (verified over all schedules in
    the test suite). *)

open Ch_lang

val with_channel_prelude : Term.term -> Term.term
(** Bind [newChan :: IO (Chan a)], [writeChan] ([\c -> \v -> ...]) and
    [readChan] ([\c -> ...], interruptible while the channel is empty)
    around a program. *)
