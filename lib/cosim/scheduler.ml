type stats = { processed : int; peak_queue : int }
