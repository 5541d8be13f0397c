"""EEG emotion recognition pipeline.

Signal cleanup (Butterworth band-stop, standard score), disorder simulation
with entropy validation, Welch PSD feature matrices, a from-scratch CNN with
exact gradients, and a streaming intervention mode, all behind one CLI. Each
name is imported from its module (`from affekt.signals import design_filter`);
the package re-exports nothing.
"""

__version__ = "0.1.0"
